(* A miniature key-value store: the paper's "shared atomic memory by
   composition" (Section II) in action. Several named SODA registers
   share one 8-machine fleet; clients hammer different keys
   concurrently; one machine dies and is replaced mid-run; every key
   stays atomic.

     dune exec examples/kv_store.exe
*)

module Engine = Simnet.Engine
module Params = Protocol.Params

let () =
  let params = Params.make ~n:8 ~f:3 () in
  let engine =
    Engine.create ~seed:12 ~delay:(Simnet.Delay.uniform ~lo:0.3 ~hi:2.0) ()
  in
  let keys = [ "users/alice"; "users/bob"; "config/limits"; "jobs/queue" ] in
  let store =
    Soda.Store.create ~engine ~params ~objects:keys ~num_writers:2
      ~num_readers:2 ()
  in
  Printf.printf "8-machine fleet, f=3, %d keys, [8,5] MDS code per key\n\n"
    (List.length keys);

  (* a few rounds of writes and reads across the keys, from both client
     pairs; one client writes different keys back-to-back — legal,
     because well-formedness is per object *)
  let final = Hashtbl.create 8 in
  List.iteri
    (fun i key ->
      let base = float_of_int i *. 15.0 in
      Soda.Store.write store ~obj:key ~writer:(i mod 2) ~at:base
        (Bytes.of_string (key ^ "=v1"));
      Soda.Store.write store ~obj:key
        ~writer:((i + 1) mod 2)
        ~at:(base +. 120.0)
        (Bytes.of_string (key ^ "=v2")))
    keys;

  (* machine 5 dies at t=60 and is replaced at t=180: all four registers
     on it are rebuilt by the repair protocol *)
  Soda.Store.crash_server store ~coordinate:5 ~at:60.0;
  Soda.Store.repair_server store ~coordinate:5 ~at:180.0;
  print_endline "t=60: machine 5 crashes (all keys lose its coded elements)";
  print_endline "t=180: replacement machine rebuilds every key's element\n";

  List.iteri
    (fun i key ->
      Soda.Store.read store ~obj:key ~reader:(i mod 2) ~at:300.0
        ~on_done:(fun v -> Hashtbl.replace final key (Bytes.to_string v))
        ())
    keys;
  Engine.run engine;

  let failed = ref false in
  List.iter
    (fun key ->
      match Hashtbl.find_opt final key with
      | Some v -> Printf.printf "  %-15s -> %s\n" key v
      | None ->
        failed := true;
        Printf.printf "  %-15s -> READ DID NOT COMPLETE\n" key)
    keys;

  (match Soda.Store.check_atomicity store with
  | Ok () -> print_endline "\nevery key's history is atomic"
  | Error (key, v) ->
    failed := true;
    Format.printf "\nATOMICITY VIOLATION on %s: %a@." key
      Protocol.Atomicity.pp_violation v);
  Printf.printf
    "per-key storage: n/(n-f) = %.2f value units — replication (ABD) would \
     use %d, a %.1fx saving on every key\n"
    (8.0 /. 5.0) 8
    (8.0 /. (8.0 /. 5.0));
  if !failed then exit 1
