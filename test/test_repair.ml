(* Tests of the repair extension (the paper's future-work item (ii)):
   a crashed server is restored with no volatile state, rebuilds its
   coded element from its peers, and rejoins without ever compromising
   atomicity or the storage bound. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity
module Tag = Protocol.Tag

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_history d ~initial_value =
  History.all_complete (Soda.Deployment.history d)
  && Atomicity.check_tagged ~initial_value
       (History.records (Soda.Deployment.history d))
     = Ok ()

let was_repaired d ~coordinate =
  List.exists
    (function
      | Probe.Repaired { server; _ } -> server = coordinate
      | _ -> false)
    (Probe.events (Soda.Deployment.probe d))

let repair_tests =
  [ Alcotest.test_case
      "repaired server catches up and carries the system through f more \
       crashes"
      `Quick (fun () ->
        let params = Params.make ~n:5 ~f:1 () in
        let initial_value = Bytes.make 200 '0' in
        let engine = Engine.create ~seed:3 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:1
            ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        (* server 0 crashes; two writes land while it is down *)
        Soda.Deployment.crash_server d ~coordinate:0 ~at:5.0;
        let v2 = Bytes.make 200 'B' in
        Soda.Deployment.write d ~writer:0 ~at:10.0 (Bytes.make 200 'A');
        Soda.Deployment.write d ~writer:0 ~at:50.0 v2;
        (* it comes back and repairs *)
        ignore (Soda.Deployment.repair_server d ~coordinate:0 ~at:100.0);
        (* then a DIFFERENT server dies: the repaired one is now load-
           bearing — with k = 4, reads need its element *)
        Soda.Deployment.crash_server d ~coordinate:3 ~at:200.0;
        let result = ref None in
        Soda.Deployment.read d ~reader:0 ~at:250.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        Alcotest.(check bool) "was repaired" true (was_repaired d ~coordinate:0);
        (match !result with
        | Some v ->
          Alcotest.(check bool) "read returned the latest value" true
            (Bytes.equal v v2)
        | None -> Alcotest.fail "read did not complete");
        Alcotest.(check bool) "repaired server holds the latest tag" true
          (Tag.equal
             (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:0))
             (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:1)));
        Alcotest.(check bool) "history atomic" true
          (check_history d ~initial_value));
    Alcotest.test_case "repair with no writes restores the initial state"
      `Quick (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let initial_value = Bytes.of_string "pristine initial state" in
        let engine = Engine.create ~seed:5 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:1
            ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        Soda.Deployment.crash_server d ~coordinate:2 ~at:1.0;
        ignore (Soda.Deployment.repair_server d ~coordinate:2 ~at:20.0);
        let result = ref None in
        Soda.Deployment.read d ~reader:0 ~at:100.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        Alcotest.(check bool) "repaired" true (was_repaired d ~coordinate:2);
        (match !result with
        | Some v ->
          Alcotest.(check bool) "initial value" true
            (Bytes.equal v initial_value)
        | None -> Alcotest.fail "read did not complete"));
    Alcotest.test_case "repairing server abstains from quorums until done"
      `Quick (fun () ->
        let params = Params.make ~n:5 ~f:1 () in
        let engine = Engine.create ~seed:9 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 64 '0') ~num_writers:1 ~num_readers:1
            ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'A');
        Soda.Deployment.crash_server d ~coordinate:0 ~at:20.0;
        ignore (Soda.Deployment.repair_server d ~coordinate:0 ~at:30.0);
        Engine.run engine;
        (* after quiescence the repair is over and the server serves
           queries again: a subsequent read must get n replies *)
        Alcotest.(check bool) "no longer repairing" false
          (Soda.Server.repairing (Soda.Deployment.server d ~coordinate:0));
        let result = ref None in
        Soda.Deployment.read d ~reader:0 ~at:(Engine.now engine +. 10.0)
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        Alcotest.(check bool) "read fine" true (result := !result; !result <> None));
    Alcotest.test_case "repair cost is about one value unit" `Quick (fun () ->
        let params = Params.make ~n:8 ~f:2 () in
        let value_len = 1024 in
        let engine = Engine.create ~seed:11 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make value_len '0') ~num_writers:1
            ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make value_len 'A');
        Soda.Deployment.crash_server d ~coordinate:5 ~at:20.0;
        let op = Soda.Deployment.repair_server d ~coordinate:5 ~at:50.0 in
        Engine.run engine;
        let cost = Cost.comm_of_op (Soda.Deployment.cost d) ~op in
        (* n-1 peers each send one coded element of size ~1/k: cost is
           (n-1)/k = 7/6 ~ 1.17 value units *)
        Alcotest.(check bool)
          (Printf.sprintf "cost %.2f within [0.9, 1.5]" cost)
          true
          (cost >= 0.9 && cost <= 1.5));
    Alcotest.test_case "storage stays at n/(n-f) through crash and repair"
      `Quick (fun () ->
        let params = Params.make ~n:6 ~f:2 () in
        let value_len = 600 in
        let engine = Engine.create ~seed:13 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make value_len '0') ~num_writers:1
            ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make value_len 'A');
        Soda.Deployment.crash_server d ~coordinate:1 ~at:20.0;
        ignore (Soda.Deployment.repair_server d ~coordinate:1 ~at:50.0);
        Soda.Deployment.write d ~writer:0 ~at:100.0 (Bytes.make value_len 'B');
        Engine.run engine;
        let frag =
          Erasure.Splitter.fragment_size ~k:(Params.k_soda params) ~value_len
        in
        let expected = float_of_int (6 * frag) /. float_of_int value_len in
        Alcotest.(check (float 1e-9)) "storage"
          expected
          (Cost.max_total_storage (Soda.Deployment.cost d)));
    qtest ~count:40 "randomized crash/repair cycles preserve atomicity"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        int_range 0 6 >>= fun victim ->
        float_range 10.0 150.0 >>= fun crash_t ->
        float_range 30.0 200.0 >|= fun gap -> (seed, victim, crash_t, gap))
      (fun (seed, victim, crash_t, gap) ->
        let params = Params.make ~n:7 ~f:2 () in
        let initial_value =
          Harness.Workload.value ~len:128 ~seed ~index:999
        in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.3 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:2
            ~num_readers:2 ()
        in
        Probe.record (Soda.Deployment.probe d);
        Soda.Deployment.crash_server d ~coordinate:victim ~at:crash_t;
        ignore
          (Soda.Deployment.repair_server d ~coordinate:victim
             ~at:(crash_t +. gap));
        for i = 0 to 3 do
          let t = float_of_int i *. 120.0 in
          Soda.Deployment.write d ~writer:(i mod 2) ~at:t
            (Harness.Workload.value ~len:128 ~seed ~index:i);
          Soda.Deployment.read d ~reader:(i mod 2) ~at:(t +. 60.0) ()
        done;
        Engine.run engine;
        check_history d ~initial_value && was_repaired d ~coordinate:victim);
    qtest ~count:30 "repair concurrent with writes still converges"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:2 () in
        let initial_value = Harness.Workload.value ~len:128 ~seed ~index:999 in
        let engine =
          Engine.create ~seed ~delay:(Delay.exponential ~mean:1.0 ~cap:8.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:3
            ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        Soda.Deployment.crash_server d ~coordinate:2 ~at:5.0;
        (* repair kicks off exactly while three writers are dispersing *)
        ignore (Soda.Deployment.repair_server d ~coordinate:2 ~at:31.0);
        for w = 0 to 2 do
          Soda.Deployment.write d ~writer:w
            ~at:(30.0 +. float_of_int w)
            (Harness.Workload.value ~len:128 ~seed ~index:w)
        done;
        Soda.Deployment.read d ~reader:0 ~at:200.0 ();
        Engine.run engine;
        check_history d ~initial_value
        && was_repaired d ~coordinate:2
        && (* the repaired server converged to the same tag as everyone *)
        Tag.equal
          (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:2))
          (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:0)));
    Alcotest.test_case "SODAerr repair decodes through corrupt disks" `Quick
      (fun () ->
        let params = Params.make ~n:10 ~f:1 ~e:2 () in
        let initial_value = Bytes.make 300 '0' in
        let engine = Engine.create ~seed:17 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value
            ~error_prone:[ 3; 6 ] ~num_writers:1 ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        let v = Bytes.make 300 'A' in
        Soda.Deployment.write d ~writer:0 ~at:0.0 v;
        Soda.Deployment.crash_server d ~coordinate:0 ~at:20.0;
        ignore (Soda.Deployment.repair_server d ~coordinate:0 ~at:50.0);
        let result = ref None in
        Soda.Deployment.read d ~reader:0 ~at:200.0
          ~on_done:(fun value -> result := Some value)
          ();
        Engine.run engine;
        Alcotest.(check bool) "repaired" true (was_repaired d ~coordinate:0);
        (match !result with
        | Some value ->
          Alcotest.(check bool) "read correct despite corrupt repair input"
            true (Bytes.equal value v)
        | None -> Alcotest.fail "read did not complete"))
  ]

let () = Alcotest.run "repair" [ ("repair", repair_tests) ]
