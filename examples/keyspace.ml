(* A sharded keyspace: many logical keys multiplexed over one shared
   fleet of 12 servers in 3 failure domains (racks). Each key is an
   independent [6,4] SODA instance placed by consistent hashing so
   that no rack holds more than f = 2 of its fragments — then a whole
   rack crashes and every key keeps serving.

     dune exec examples/keyspace.exe
*)

module Engine = Simnet.Engine
module Topology = Soda.Topology
module Placement = Soda.Placement
module Keyspace = Soda.Keyspace

let () =
  let engine =
    Engine.create ~seed:11 ~delay:(Simnet.Delay.uniform ~lo:0.5 ~hi:2.0) ()
  in

  (* the fleet: 12 servers round-robined into 3 racks, each key a 4+2
     code spread by consistent hashing *)
  let topology = Topology.make ~servers:12 ~domains:3 () in
  let placement =
    Placement.create ~topology
      ~params:(Placement.preset_params `P4_2)
      ~policy:Placement.Consistent_hash ()
  in
  Printf.printf "placement is domain-safe: %b\n"
    (Placement.domain_safe placement);

  let ks =
    Keyspace.create ~engine ~placement ~plane:Soda.Config.batched_plane
      ~num_writers:2 ~num_readers:2 ()
  in

  (* 16 keys, each written once; note where key 0 lives *)
  let keys = 16 in
  Printf.printf "key 0 is placed on servers [%s]\n\n"
    (String.concat "; "
       (Array.to_list
          (Array.map string_of_int (Keyspace.placement_of ks ~key:0))));
  for key = 0 to keys - 1 do
    Keyspace.write ks ~key ~writer:(key mod 2) ~at:(float_of_int (key * 3))
      (Bytes.of_string (Printf.sprintf "value-for-key-%d" key))
  done;

  (* rack 1 (servers 1, 4, 7, 10) dies wholesale at t=100 *)
  Keyspace.crash_domain ks ~domain:1 ~at:100.0;
  print_endline "rack 1 (servers 1, 4, 7, 10) crashes at t=100";

  (* every key is read after the rack loss; domain-safe placement
     means each instance lost at most f = 2 of its 6 fragments *)
  let completed = ref 0 in
  for key = 0 to keys - 1 do
    Keyspace.read ks ~key ~reader:(key mod 2)
      ~at:(150.0 +. float_of_int key)
      ~on_done:(fun v ->
        incr completed;
        assert (Bytes.to_string v = Printf.sprintf "value-for-key-%d" key))
      ()
  done;

  Engine.run engine;

  Printf.printf "\n%d/%d reads completed after losing a whole rack\n"
    !completed keys;
  let atomic =
    match Keyspace.check_atomicity ks with
    | Ok () ->
      print_endline "every key's history is atomic";
      true
    | Error (key, _) ->
      Printf.printf "key %d violated atomicity — a bug!\n" key;
      false
  in
  Printf.printf "total messages: %d (%.1f per op)\n"
    (Engine.messages_sent engine)
    (float_of_int (Engine.messages_sent engine)
    /. float_of_int (2 * keys));
  if !completed <> keys || not atomic then exit 1
