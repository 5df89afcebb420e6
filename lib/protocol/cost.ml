(* Both ledgers are keyed by non-negative ints: op ids (history op
   numbers, [Server.repair_op] and [Server.scrub_op] labels) and server
   coordinates. *)
type t = {
  value_len : int;
  comm_by_op : int Int_tbl.Map.t;  (* op -> data bytes sent for it *)
  storage_by_server : int Int_tbl.Map.t;  (* server -> bytes stored *)
  mutable total_comm_bytes : int;
  mutable current_storage_bytes : int;
  mutable max_storage_bytes : int
}

(* A keyspace creates one accountant per key, and most keys charge a
   handful of ops on n servers: both tables start without slots and
   grow only where a key is busy. *)
let create ~value_len =
  if value_len <= 0 then invalid_arg "Cost.create: value_len must be positive";
  { value_len;
    comm_by_op = Int_tbl.Map.create ~dummy:0 0;
    storage_by_server = Int_tbl.Map.create ~dummy:0 0;
    total_comm_bytes = 0;
    current_storage_bytes = 0;
    max_storage_bytes = 0
  }

let value_len t = t.value_len
let units t bytes = float_of_int bytes /. float_of_int t.value_len

let comm t ~op ~bytes =
  if bytes < 0 then invalid_arg "Cost.comm: negative size";
  Int_tbl.Map.replace t.comm_by_op op
    (Int_tbl.Map.find t.comm_by_op op ~default:0 + bytes);
  t.total_comm_bytes <- t.total_comm_bytes + bytes

let comm_of_op t ~op = units t (Int_tbl.Map.find t.comm_by_op op ~default:0)
let total_comm t = units t t.total_comm_bytes

let storage_of_server t ~server =
  Int_tbl.Map.find t.storage_by_server server ~default:0

let storage_set t ~server ~bytes =
  if bytes < 0 then invalid_arg "Cost.storage_set: negative size";
  let previous = storage_of_server t ~server in
  Int_tbl.Map.replace t.storage_by_server server bytes;
  t.current_storage_bytes <- t.current_storage_bytes - previous + bytes;
  if t.current_storage_bytes > t.max_storage_bytes then
    t.max_storage_bytes <- t.current_storage_bytes

let current_total_storage t = units t t.current_storage_bytes
let max_total_storage t = units t t.max_storage_bytes
