type t = {
  value_len : int;
  comm_by_op : (int, int ref) Hashtbl.t;
  storage_by_server : (int, int) Hashtbl.t;
  mutable total_comm_bytes : int;
  mutable current_storage_bytes : int;
  mutable max_storage_bytes : int
}

(* A keyspace creates one accountant per key, and most keys charge a
   handful of ops on n servers: both tables start at Hashtbl's minimum
   and grow only where a key is busy. *)
let create ~value_len =
  if value_len <= 0 then invalid_arg "Cost.create: value_len must be positive";
  { value_len;
    comm_by_op = Hashtbl.create 1;
    storage_by_server = Hashtbl.create 1;
    total_comm_bytes = 0;
    current_storage_bytes = 0;
    max_storage_bytes = 0
  }

let value_len t = t.value_len
let units t bytes = float_of_int bytes /. float_of_int t.value_len

let comm t ~op ~bytes =
  if bytes < 0 then invalid_arg "Cost.comm: negative size";
  (match Hashtbl.find_opt t.comm_by_op op with
  | Some r -> r := !r + bytes
  | None -> Hashtbl.add t.comm_by_op op (ref bytes));
  t.total_comm_bytes <- t.total_comm_bytes + bytes

let comm_bytes_of_op t ~op =
  match Hashtbl.find_opt t.comm_by_op op with Some r -> !r | None -> 0

let comm_of_op t ~op = units t (comm_bytes_of_op t ~op)
let total_comm t = units t t.total_comm_bytes

let storage_set t ~server ~bytes =
  if bytes < 0 then invalid_arg "Cost.storage_set: negative size";
  let previous =
    match Hashtbl.find_opt t.storage_by_server server with
    | Some b -> b
    | None -> 0
  in
  Hashtbl.replace t.storage_by_server server bytes;
  t.current_storage_bytes <- t.current_storage_bytes - previous + bytes;
  if t.current_storage_bytes > t.max_storage_bytes then
    t.max_storage_bytes <- t.current_storage_bytes

let storage_of_server t ~server =
  match Hashtbl.find_opt t.storage_by_server server with
  | Some b -> b
  | None -> 0

let current_total_storage t = units t t.current_storage_bytes
let max_total_storage t = units t t.max_storage_bytes
