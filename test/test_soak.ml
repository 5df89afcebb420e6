(* Soak tests: larger systems, longer executions, combined fault types.
   These run whole-system scenarios closer to the paper's motivating
   deployments (tens of servers) than the per-property unit tests. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Atomicity = Protocol.Atomicity
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

let accept (r : Runner.result) =
  History.all_complete r.Runner.history
  && Atomicity.check_tagged ~initial_value:r.Runner.initial_value
       (History.records r.Runner.history)
     = Ok ()

let soak_tests =
  [ Alcotest.test_case "n=25 at fmax with staggered crashes" `Quick (fun () ->
        let params = Params.make ~n:25 ~f:12 () in
        let w =
          Workload.concurrent ~params ~value_len:256 ~seed:1 ~num_writers:4
            ~num_readers:4 ~ops_per_client:3
            ~delay:(Delay.exponential ~mean:1.0 ~cap:10.0) ()
        in
        let crashes = List.init 12 (fun i -> (2 * i, float_of_int (i * 80))) in
        let r = Runner.run Runner.Soda (Workload.with_crashes w crashes) in
        Alcotest.(check bool) "accepted" true (accept r));
    Alcotest.test_case "n=31 SODAerr: crashes + corrupting disks together"
      `Quick (fun () ->
        let params = Params.make ~n:31 ~f:10 ~e:2 () in
        let w =
          Workload.concurrent ~params ~value_len:256 ~seed:2 ~num_writers:3
            ~num_readers:3 ~ops_per_client:2 ()
        in
        let w = Workload.with_errors w [ 5; 17 ] in
        let crashes = List.init 10 (fun i -> (3 * i, float_of_int (i * 60))) in
        let r = Runner.run Runner.Soda (Workload.with_crashes w crashes) in
        Alcotest.(check bool) "accepted" true (accept r);
        Alcotest.(check string) "ran as soda-err" "soda-err"
          r.Runner.algorithm);
    Alcotest.test_case "200-operation run with crash/repair cycles" `Quick
      (fun () ->
        let params = Params.make ~n:9 ~f:3 () in
        let initial_value = Workload.value ~len:128 ~seed:3 ~index:999 in
        let engine =
          Engine.create ~seed:3 ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:4
            ~num_readers:4 ()
        in
        (* 100 writes + 100 reads across 8 clients, with three full
           crash-then-repair cycles sprinkled through the run *)
        for i = 0 to 99 do
          let t = float_of_int i *. 45.0 in
          Soda.Deployment.write d ~writer:(i mod 4) ~at:t
            (Workload.value ~len:128 ~seed:3 ~index:i);
          Soda.Deployment.read d ~reader:(i mod 4) ~at:(t +. 20.0) ()
        done;
        List.iteri
          (fun i c ->
            let t0 = 300.0 +. (float_of_int i *. 1100.0) in
            Soda.Deployment.crash_server d ~coordinate:c ~at:t0;
            ignore (Soda.Deployment.repair_server d ~coordinate:c ~at:(t0 +. 400.0)))
          [ 1; 4; 7 ];
        Engine.run engine;
        let history = Soda.Deployment.history d in
        Alcotest.(check int) "200 ops" 200 (History.size history);
        Alcotest.(check bool) "all complete" true (History.all_complete history);
        Alcotest.(check bool) "atomic" true
          (Atomicity.check_tagged ~initial_value (History.records history)
          = Ok ()));
    Alcotest.test_case "all algorithms agree on a 15-server workload" `Quick
      (fun () ->
        let params = Params.make ~n:15 ~f:7 () in
        let w =
          Workload.concurrent ~params ~value_len:512 ~seed:4 ~num_writers:3
            ~num_readers:3 ~ops_per_client:3 ()
        in
        List.iter
          (fun algo ->
            let r = Runner.run algo w in
            let s = Metrics.summarize r in
            Alcotest.(check bool)
              (r.Runner.algorithm ^ " accepted")
              true
              (s.Metrics.liveness && s.Metrics.atomic))
          [ Runner.Soda; Runner.Abd; Runner.Cas { gc_depth = None };
            Runner.Cas { gc_depth = Some 3 }
          ]);
    Alcotest.test_case "message volume stays within the O(n^2) envelope"
      `Quick (fun () ->
        (* regression guard against accidental message blowups: a write
           disperses O(f^2) value-bearing messages plus O(n) acks, a read
           registers via MD (O(n)) and triggers O(n) relays, each
           announced via MD (O(n) each, so O(n^2) per read) *)
        let params = Params.make ~n:12 ~f:5 () in
        let w = Workload.sequential ~params ~value_len:64 ~seed:5 ~rounds:4 () in
        let r = Runner.run Runner.Soda w in
        let n = 12 in
        let per_read = 4 * n * n in
        let per_write = 4 * n * n in
        let budget = 4 * (per_read + per_write) in
        Alcotest.(check bool)
          (Printf.sprintf "%d messages <= %d" r.Runner.messages_sent budget)
          true
          (r.Runner.messages_sent <= budget))
  ]

let large_n_tests =
  [ Alcotest.test_case "n=300 (GF(2^16) codec) write/read round-trip" `Quick
      (fun () ->
        (* beyond the 255-fragment limit of byte-oriented RS: the config
           transparently switches to the GF(2^16) codec *)
        let params = Params.make ~n:300 ~f:10 () in
        let engine =
          Engine.create ~seed:6 ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 1024 '0') ~num_writers:1 ~num_readers:1
            ()
        in
        let config = Soda.Deployment.config d in
        Alcotest.(check string) "GF(2^16) codec" "rs-bch16[300,290]"
          (Erasure.Mds.name config.Soda.Config.code);
        let value = Workload.value ~len:1024 ~seed:6 ~index:0 in
        let result = ref None in
        Soda.Deployment.write d ~writer:0 ~at:0.0 value;
        Soda.Deployment.read d ~reader:0 ~at:200.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        (match !result with
        | Some v -> Alcotest.(check bool) "value" true (Bytes.equal v value)
        | None -> Alcotest.fail "read did not complete");
        let storage =
          Protocol.Cost.max_total_storage (Soda.Deployment.cost d)
        in
        let expected =
          float_of_int
            (300
            * Erasure.Mds.fragment_size config.Soda.Config.code
                ~value_len:1024)
          /. 1024.0
        in
        Alcotest.(check (float 1e-9)) "storage matches n/(n-f) + framing"
          expected storage);
    Alcotest.test_case
      "n=300 SODAerr decodes through corrupt disks (GF(2^16) BCH codec)"
      `Quick (fun () ->
        let params = Params.make ~n:300 ~f:10 ~e:2 () in
        let engine =
          Engine.create ~seed:7 ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 1024 '0') ~error_prone:[ 44; 199 ]
            ~num_writers:1 ~num_readers:1 ()
        in
        let config = Soda.Deployment.config d in
        Alcotest.(check string) "rs-bch16 codec" "rs-bch16[300,286]"
          (Erasure.Mds.name config.Soda.Config.code);
        let value = Workload.value ~len:1024 ~seed:7 ~index:0 in
        let result = ref None in
        Soda.Deployment.write d ~writer:0 ~at:0.0 value;
        Soda.Deployment.read d ~reader:0 ~at:200.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        match !result with
        | Some v -> Alcotest.(check bool) "value intact" true (Bytes.equal v value)
        | None -> Alcotest.fail "read did not complete")
  ]

let () =
  Alcotest.run "soak"
    [ ("soak", soak_tests); ("large-n", large_n_tests) ]
