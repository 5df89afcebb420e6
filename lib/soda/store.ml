module Params = Protocol.Params
module History = Protocol.History

(* Object number i (in creation order) is logical key i of one
   shared-plane keyspace over an n-server single-domain topology, so
   the named-object store inherits cross-key message coalescing. *)
type t = { ks : Keyspace.t; names : string array }

let key_of t obj =
  let rec go i =
    if i >= Array.length t.names then
      invalid_arg (Printf.sprintf "Store: unknown object %S" obj)
    else if String.equal t.names.(i) obj then i
    else go (i + 1)
  in
  go 0

let create ~engine ~params ~objects ?value_len ~num_writers ~num_readers () =
  if List.is_empty objects then invalid_arg "Store.create: no objects";
  let sorted = List.sort_uniq String.compare objects in
  if List.length sorted <> List.length objects then
    invalid_arg "Store.create: duplicate object names";
  let topology = Topology.make ~servers:(Params.n params) ~domains:1 () in
  let placement = Placement.create ~topology ~params () in
  let ks =
    Keyspace.create ~engine ~placement ?value_len ~num_writers ~num_readers ()
  in
  let names = Array.of_list objects in
  (* eager instances, in creation order: machine faults and storage
     accounting must cover every object from time zero, not from its
     first operation *)
  Array.iteri (fun key _ -> Keyspace.materialize ks ~key) names;
  { ks; names }

let write t ~obj ~writer ~at ?on_done value =
  Keyspace.write t.ks ~key:(key_of t obj) ~writer ~at ?on_done value

let read t ~obj ~reader ~at ?on_done () =
  Keyspace.read t.ks ~key:(key_of t obj) ~reader ~at ?on_done ()

let crash_server t ~coordinate ~at =
  Keyspace.crash_server t.ks ~server:coordinate ~at

let repair_server t ~coordinate ~at =
  Keyspace.repair_server t.ks ~server:coordinate ~at

let repairing t = Keyspace.repairing t.ks
let total_storage t = Keyspace.total_storage t.ks

let check_atomicity t =
  match Keyspace.check_atomicity t.ks with
  | Ok () -> Ok ()
  | Error (key, v) -> Error (t.names.(key), v)

let all_complete t = Keyspace.all_complete t.ks
