(* Concurrency anatomy: several readers overlap a stream of writes.
   This example dissects what SODA's servers do under the hood — the
   registration windows, the relays of concurrently written coded
   elements, and the elastic read cost n/(n-f) * (delta_w + 1).

     dune exec examples/concurrent_readers.exe
*)

module Engine = Simnet.Engine
module Params = Protocol.Params
module Probe = Protocol.Probe
module History = Protocol.History
module Cost = Protocol.Cost

let () =
  let n = 10 and f = 3 in
  let params = Params.make ~n ~f () in
  let engine =
    Engine.create ~seed:4 ~delay:(Simnet.Delay.exponential ~mean:1.5 ~cap:10.0)
      ()
  in
  let d =
    Soda.Deployment.deploy ~engine ~params ~initial_value:(Bytes.make 2048 '0')
      ~num_writers:3 ~num_readers:3 ()
  in
  (* the read anatomy below comes from the probe stream *)
  Probe.record (Soda.Deployment.probe d);

  (* three writers fire continuously; three readers read in the thick of
     it *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      Soda.Deployment.write d
        ~writer:i
        ~at:(5.0 +. (float_of_int j *. 70.0) +. (float_of_int i *. 4.0))
        (Bytes.make 2048 (Char.chr (Char.code 'a' + (3 * j) + i)))
    done;
    Soda.Deployment.read d ~reader:i ~at:(8.0 +. (float_of_int i *. 3.0)) ()
  done;
  Engine.run engine;

  let history = Soda.Deployment.history d in
  let probe = Soda.Deployment.probe d in
  let cost = Soda.Deployment.cost d in

  Printf.printf "history (%d operations, all complete: %b):\n"
    (History.size history)
    (History.all_complete history);
  Format.printf "%a@." History.pp history;

  print_endline "read anatomy:";
  List.iter
    (fun o ->
      if o.History.kind = History.Read then begin
        let rid = o.History.op in
        match Probe.registration_window probe ~rid with
        | Some (t1, t2) ->
          let relays = Probe.relays_of probe ~rid in
          Printf.printf
            "  read op%d: registered window [%.2f, %.2f] (%.2f units), %d \
             coded elements relayed, cost %.2f (quiescent would be %.2f)\n"
            rid t1 t2 (t2 -. t1) relays
            (Cost.comm_of_op cost ~op:rid)
            (float_of_int n /. float_of_int (n - f))
        | None -> Printf.printf "  read op%d: never registered?\n" rid
      end)
    (History.records history);

  (match
     Protocol.Atomicity.check_tagged ~initial_value:(Bytes.make 2048 '0')
       (History.records history)
   with
  | Ok () -> print_endline "\natomicity check: PASSED (Lemma 2.1 holds)"
  | Error v ->
    Format.printf "\natomicity check: FAILED: %a@."
      Protocol.Atomicity.pp_violation v)
