(* Repair: the paper's future-work item (ii), implemented. A server
   machine dies, its replacement comes up empty, rebuilds its coded
   element from k peers for about one value unit of traffic, and becomes
   load-bearing again.

     dune exec examples/repair.exe
*)

module Engine = Simnet.Engine
module Params = Protocol.Params
module Probe = Protocol.Probe
module Cost = Protocol.Cost
module Tag = Protocol.Tag

let () =
  let params = Params.make ~n:6 ~f:2 () in
  Printf.printf "n=6 servers, f=2, [6,4] MDS code\n\n";
  let engine =
    Engine.create ~seed:8 ~delay:(Simnet.Delay.uniform ~lo:0.5 ~hi:1.5) ()
  in
  let d =
    Soda.Deployment.deploy ~engine ~params ~initial_value:(Bytes.make 2048 '0')
      ~num_writers:1 ~num_readers:1 ()
  in
  (* the repair timeline below is read from the probe stream *)
  Probe.record (Soda.Deployment.probe d);

  (* life before the failure *)
  Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 2048 'A');

  (* server 4 dies; the system keeps going without it *)
  Soda.Deployment.crash_server d ~coordinate:4 ~at:20.0;
  print_endline "t=20: server 4 crashes";
  let v_latest = Bytes.make 2048 'B' in
  Soda.Deployment.write d ~writer:0 ~at:40.0 v_latest;
  print_endline "t=40: a write lands while server 4 is down";

  (* the replacement machine boots at t=100 and repairs *)
  let repair_op = Soda.Deployment.repair_server d ~coordinate:4 ~at:100.0 in
  print_endline "t=100: server 4 restored empty; repair protocol starts";

  (* after repair, two OTHER servers crash: f = 2 budget, and now the
     repaired server's coded element is needed for any read to decode *)
  Soda.Deployment.crash_server d ~coordinate:0 ~at:200.0;
  Soda.Deployment.crash_server d ~coordinate:1 ~at:200.0;
  print_endline "t=200: servers 0 and 1 crash — only 4 servers remain (= k)";

  let result = ref None in
  Soda.Deployment.read d ~reader:0 ~at:250.0
    ~on_done:(fun v -> result := Some v)
    ();
  Engine.run engine;

  List.iter
    (function
      | Probe.Repair_started { server; time } ->
        Printf.printf "t=%.1f: server %d began repair\n" time server
      | Probe.Repaired { server; tag; time } ->
        Printf.printf "t=%.1f: server %d repaired, now holds tag %s\n" time
          server (Tag.to_string tag)
      | _ -> ())
    (Probe.events (Soda.Deployment.probe d));

  Printf.printf "repair traffic: %.2f value units (one decode's worth)\n"
    (Cost.comm_of_op (Soda.Deployment.cost d) ~op:repair_op);

  match !result with
  | Some v ->
    Printf.printf
      "t=%.1f: read completed through the repaired server — latest value: %b\n"
      (Engine.now engine) (Bytes.equal v v_latest)
  | None ->
    print_endline
      "read did not complete — without repair this is exactly what would \
       have happened (3 crashes > f)"
