type kind = Write | Read

type record = {
  op : int;
  client : int;
  kind : kind;
  invoked_at : float;
  mutable responded_at : float option;
  mutable tag : Tag.t option;
  mutable value : bytes option
}

type t = { mutable rev_records : record list; mutable count : int }

let create () = { rev_records = []; count = 0 }

let invoke t ~client ~kind ~at =
  let record =
    { op = t.count;
      client;
      kind;
      invoked_at = at;
      responded_at = None;
      tag = None;
      value = None
    }
  in
  t.rev_records <- record :: t.rev_records;
  t.count <- t.count + 1;
  record.op

let find t ~op =
  match List.find_opt (fun r -> r.op = op) t.rev_records with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "History.find: unknown op %d" op)

let set_tag t ~op tag = (find t ~op).tag <- Some tag
let set_value t ~op value = (find t ~op).value <- Some value

let respond t ~op ~at =
  let r = find t ~op in
  (match r.responded_at with
  | Some _ -> invalid_arg (Printf.sprintf "History.respond: op %d twice" op)
  | None -> ());
  if at < r.invoked_at then
    invalid_arg "History.respond: response precedes invocation";
  r.responded_at <- Some at

let records t = List.rev t.rev_records
let size t = t.count

let all_complete t =
  List.for_all (fun r -> Option.is_some r.responded_at) t.rev_records

let pp_kind ppf = function
  | Write -> Format.pp_print_string ppf "write"
  | Read -> Format.pp_print_string ppf "read"

let pp_record ppf r =
  Format.fprintf ppf "@[op%d %a client=%d [%.3f, %s] tag=%s%s@]" r.op pp_kind
    r.kind r.client r.invoked_at
    (match r.responded_at with
    | Some x -> Printf.sprintf "%.3f" x
    | None -> "…")
    (match r.tag with Some tag -> Tag.to_string tag | None -> "?")
    (match r.value with
    | Some v -> Printf.sprintf " |v|=%d" (Bytes.length v)
    | None -> "")

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_record r) (records t);
  Format.fprintf ppf "@]"
