(* Tests for the experiment harness itself: workload construction,
   runner determinism and uniformity across algorithms, metric
   extraction, and the report renderer. *)

module Params = Protocol.Params
module History = Protocol.History
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics
module Report = Harness.Report

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let params = Params.make ~n:8 ~f:3 ()

let writes (w : Workload.t) =
  List.length
    (List.filter
       (function Workload.Write _ -> true | Workload.Read _ -> false)
       w.Workload.ops)

let workload_tests =
  [ qtest "values are deterministic and distinct per index"
      QCheck2.Gen.(pair (int_range 1 500) (int_range 0 1000))
      (fun (len, seed) ->
        let a = Workload.value ~len ~seed ~index:1 in
        let b = Workload.value ~len ~seed ~index:1 in
        let c = Workload.value ~len ~seed ~index:2 in
        Bytes.equal a b && not (Bytes.equal a c) && Bytes.length a = len);
    Alcotest.test_case "sequential workload shape" `Quick (fun () ->
        let w = Workload.sequential ~params ~rounds:4 () in
        Alcotest.(check int) "ops" 8 (Workload.total_ops w);
        Alcotest.(check int) "writes" 4 (writes w);
        Alcotest.(check int) "reads" 4 (Workload.total_ops w - writes w);
        (* strictly alternating and increasing times *)
        let times =
          List.map
            (function
              | Workload.Write { at; _ } | Workload.Read { at; _ } -> at)
            w.Workload.ops
        in
        Alcotest.(check bool) "sorted" true
          (List.sort compare times = times));
    Alcotest.test_case "concurrent workload is time-sorted" `Quick (fun () ->
        let w =
          Workload.concurrent ~params ~num_writers:3 ~num_readers:2
            ~ops_per_client:3 ()
        in
        Alcotest.(check int) "ops" 15 (Workload.total_ops w);
        let times =
          List.map
            (function
              | Workload.Write { at; _ } | Workload.Read { at; _ } -> at)
            w.Workload.ops
        in
        Alcotest.(check bool) "sorted" true (List.sort compare times = times));
    Alcotest.test_case "with_crashes and with_errors accumulate" `Quick
      (fun () ->
        let w = Workload.sequential ~params ~rounds:1 () in
        let w = Workload.with_crashes w [ (1, 5.0) ] in
        let w = Workload.with_crashes w [ (2, 9.0) ] in
        let w = Workload.with_errors w [ 3 ] in
        Alcotest.(check int) "crashes" 2 (List.length w.Workload.server_crashes);
        Alcotest.(check (list int)) "errors" [ 3 ] w.Workload.error_prone);
    Alcotest.test_case "storm workload invariants" `Quick (fun () ->
        let w =
          Workload.read_with_write_storm ~params ~writers:3
            ~writes_per_writer:2 ()
        in
        Alcotest.(check int) "one read" 1 (Workload.total_ops w - writes w);
        Alcotest.(check int) "writes" 7 (writes w))
  ]

let runner_tests =
  [ qtest ~count:20 "runs of all algorithms on one workload are all valid"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let w =
          Workload.concurrent ~params ~value_len:64 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:1 ()
        in
        List.for_all
          (fun algo ->
            let s = Metrics.summarize (Runner.run algo w) in
            s.Metrics.liveness && s.Metrics.atomic)
          [ Runner.Soda; Runner.Abd; Runner.Cas { gc_depth = None };
            Runner.Cas { gc_depth = Some 3 }
          ]);
    Alcotest.test_case "algorithm names" `Quick (fun () ->
        let w = Workload.sequential ~params ~rounds:1 () in
        let name algo = (Runner.run algo w).Runner.algorithm in
        Alcotest.(check string) "soda" "soda" (name Runner.Soda);
        Alcotest.(check string) "abd" "abd" (name Runner.Abd);
        Alcotest.(check string) "cas" "cas"
          (name (Runner.Cas { gc_depth = None }));
        Alcotest.(check string) "casgc" "casgc(4)"
          (name (Runner.Cas { gc_depth = Some 4 })));
    Alcotest.test_case "soda-err is reported when e > 0" `Quick (fun () ->
        let params_err = Params.make ~n:8 ~f:2 ~e:1 () in
        let w = Workload.sequential ~params:params_err ~rounds:1 () in
        let r = Runner.run Runner.Soda w in
        Alcotest.(check string) "name" "soda-err" r.Runner.algorithm);
    Alcotest.test_case "crashed servers are reported crashed" `Quick (fun () ->
        let w = Workload.sequential ~params ~rounds:1 () in
        let w = Workload.with_crashes w [ (2, 0.0); (5, 10.0) ] in
        let r = Runner.run Runner.Soda w in
        Alcotest.(check bool) "2 crashed" true (r.Runner.crashed 2);
        Alcotest.(check bool) "5 crashed" true (r.Runner.crashed 5);
        Alcotest.(check bool) "0 alive" false (r.Runner.crashed 0))
  ]

let metrics_tests =
  [ Alcotest.test_case "stats_of" `Quick (fun () ->
        let s = Metrics.stats_of [ 1.0; 2.0; 3.0 ] in
        Alcotest.(check int) "count" 3 s.Metrics.count;
        Alcotest.(check (float 1e-9)) "mean" 2.0 s.Metrics.mean;
        Alcotest.(check (float 1e-9)) "max" 3.0 s.Metrics.max;
        Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
        let z = Metrics.stats_of [] in
        Alcotest.(check int) "empty count" 0 z.Metrics.count;
        Alcotest.(check (float 0.)) "empty mean" 0.0 z.Metrics.mean);
    Alcotest.test_case "summary counts ops" `Quick (fun () ->
        let w = Workload.sequential ~params ~rounds:3 () in
        let s = Metrics.summarize (Runner.run Runner.Soda w) in
        Alcotest.(check int) "total" 6 s.Metrics.ops_total;
        Alcotest.(check int) "complete" 6 s.Metrics.ops_complete;
        Alcotest.(check int) "writes measured" 3 s.Metrics.write_cost.count;
        Alcotest.(check int) "reads measured" 3 s.Metrics.read_cost.count);
    Alcotest.test_case "delta_w of a quiescent read is zero" `Quick (fun () ->
        let w = Workload.sequential ~params ~rounds:2 () in
        let r = Runner.run Runner.Soda w in
        List.iter
          (fun (_, dw, _) -> Alcotest.(check int) "dw" 0 dw)
          (Metrics.reads_with_delta_w r));
    Alcotest.test_case "reads_with_delta_w is empty without probes" `Quick
      (fun () ->
        let w = Workload.sequential ~params ~rounds:1 () in
        let r = Runner.run Runner.Abd w in
        Alcotest.(check int) "empty" 0
          (List.length (Metrics.reads_with_delta_w r)))
  ]

let report_tests =
  [ Alcotest.test_case "table renders aligned and padded" `Quick (fun () ->
        let buffer = Buffer.create 256 in
        let out = Format.formatter_of_buffer buffer in
        Report.table ~out ~title:"t" ~header:[ "col"; "x" ]
          [ [ "longvalue"; "1" ]; [ "s" ] ];
        Format.pp_print_flush out ();
        let rendered = Buffer.contents buffer in
        Alcotest.(check bool) "title" true
          (String.length rendered > 0
          && (let contains s sub =
                let n = String.length s and m = String.length sub in
                let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
                go 0
              in
              contains rendered "== t =="
              && contains rendered "longvalue"
              && contains rendered "col")));
    Alcotest.test_case "formatters" `Quick (fun () ->
        Alcotest.(check string) "f2" "1.50" (Report.f2 1.5);
        Alcotest.(check string) "f2 rounds" "2.35" (Report.f2 2.346);
        Alcotest.(check string) "i" "42" (Report.i 42))
  ]

let parallel_tests =
  [ qtest ~count:50 "parallel map equals sequential map"
      QCheck2.Gen.(
        pair (list_size (int_range 0 40) (int_range (-1000) 1000))
          (int_range 1 6))
      (fun (inputs, domains) ->
        Harness.Parallel.map ~domains (fun x -> (x * x) + 1) inputs
        = List.map (fun x -> (x * x) + 1) inputs);
    Alcotest.test_case "exceptions propagate" `Quick (fun () ->
        Alcotest.check_raises "raises" Exit (fun () ->
            ignore
              (Harness.Parallel.map ~domains:3
                 (fun x -> if x = 7 then raise Exit else x)
                 [ 1; 7; 3; 4; 5 ])));
    Alcotest.test_case "parallel simulations match sequential ones" `Quick
      (fun () ->
        (* the real use: whole simulations across domains must give the
           same results as running them one by one *)
        let run seed =
          let params = Params.make ~n:6 ~f:2 () in
          let w =
            Workload.concurrent ~params ~value_len:64 ~seed ~num_writers:2
              ~num_readers:1 ~ops_per_client:1 ()
          in
          let s = Metrics.summarize (Runner.run Runner.Soda w) in
          (s.Metrics.write_cost.mean, s.Metrics.read_cost.mean,
           s.Metrics.liveness, s.Metrics.atomic)
        in
        let seeds = List.init 12 (fun i -> i) in
        Alcotest.(check bool) "same" true
          (Harness.Parallel.map ~domains:4 run seeds = List.map run seeds));
    Alcotest.test_case "domains=1 degrades to List.map" `Quick (fun () ->
        Alcotest.(check (list int)) "same" [ 2; 3; 4 ]
          (Harness.Parallel.map ~domains:1 succ [ 1; 2; 3 ]));
    Alcotest.test_case "rs-bch16 across domains = List.map" `Quick (fun () ->
        (* Seed sweeps code values on several domains at once, and the
           first use of each GF(2^16) coefficient fills the shared
           split-table cache. The parallel run goes first, so its
           domains race on a cold cache (decode without five message
           fragments also builds tables for the solved rows). *)
        let code = Erasure.Mds.rs_bch16 ~n:300 ~k:290 in
        let value_of len =
          Bytes.init len (fun i -> Char.chr (((i * 7) + len) land 0xff))
        in
        let run len =
          let frags = Erasure.Mds.encode code (value_of len) in
          let survivors =
            Array.to_list frags
            |> List.filter (fun f ->
                   let i = Erasure.Fragment.index f in
                   i < 290 || i >= 295)
          in
          ( Array.map Erasure.Fragment.data frags,
            Erasure.Mds.decode code survivors )
        in
        let lens = List.init 8 (fun i -> 1 + (i * 613)) in
        let parallel = Harness.Parallel.map ~domains:4 run lens in
        Alcotest.(check bool) "same" true (parallel = List.map run lens);
        List.iter2
          (fun len (_, decoded) ->
            Alcotest.(check bool) "decodes the value" true
              (Bytes.equal decoded (value_of len)))
          lens parallel)
  ]

let closed_loop_tests =
  [ Alcotest.test_case "all scheduled operations complete and are atomic"
      `Quick (fun () ->
        let r =
          Harness.Closed_loop.run_soda ~params ~value_len:128 ~seed:3
            ~num_writers:2 ~num_readers:2 ~ops_per_client:5 ()
        in
        let h = r.Harness.Closed_loop.history in
        Alcotest.(check int) "op count" 20 (History.size h);
        Alcotest.(check bool) "complete" true (History.all_complete h);
        Alcotest.(check bool) "atomic" true
          (Protocol.Atomicity.check_tagged
             ~initial_value:r.Harness.Closed_loop.initial_value
             (History.records h)
          = Ok ()));
    Alcotest.test_case "throughput responds to think time" `Quick (fun () ->
        let run think_time =
          Harness.Closed_loop.ops_per_time
            (Harness.Closed_loop.run_soda ~params ~value_len:128 ~seed:4
               ~think_time ~num_writers:2 ~num_readers:2 ~ops_per_client:8 ())
        in
        Alcotest.(check bool) "lower think time, higher throughput" true
          (run 0.5 > run 20.0));
    qtest ~count:15 "closed-loop runs are deterministic"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let fingerprint () =
          let r =
            Harness.Closed_loop.run_soda ~params ~value_len:64 ~seed
              ~num_writers:2 ~num_readers:1 ~ops_per_client:3 ()
          in
          ( r.Harness.Closed_loop.sim_duration,
            r.Harness.Closed_loop.messages,
            List.map
              (fun o -> (o.History.op, o.History.tag, o.History.responded_at))
              (History.records r.Harness.Closed_loop.history) )
        in
        fingerprint () = fingerprint ())
  ]

let () =
  Alcotest.run "harness"
    [ ("workload", workload_tests);
      ("runner", runner_tests);
      ("metrics", metrics_tests);
      ("report", report_tests);
      ("parallel", parallel_tests);
      ("closed-loop", closed_loop_tests)
    ]
