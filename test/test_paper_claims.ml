(* Capstone: the paper's qualitative claims, asserted as a test. If any
   refactor flips who wins on which axis, this suite fails even though
   every algorithm individually still works. *)

module Params = Protocol.Params
module History = Protocol.History
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

let summarize algo w = Metrics.summarize (Runner.run algo w)

let claims_tests =
  [ Alcotest.test_case
      "Table I orderings hold at f = fmax: SODA wins storage outright; \
       CASGC wins per-op cost; delta makes CASGC storage worst of all"
      `Quick (fun () ->
        let n = 10 in
        let params = Params.make ~n ~f:(Params.fmax ~n) () in
        let w =
          Workload.sequential ~params ~value_len:4096 ~seed:42 ~rounds:4 ()
        in
        let abd = summarize Runner.Abd w in
        let casgc = summarize (Runner.Cas { gc_depth = Some 2 }) w in
        let soda = summarize Runner.Soda w in
        let check name b = Alcotest.(check bool) name true b in
        check "all atomic and live"
          (List.for_all
             (fun s -> s.Metrics.liveness && s.Metrics.atomic)
             [ abd; casgc; soda ]);
        (* storage: SODA far below both; at f = fmax with delta = 2,
           CASGC's (delta+1) * n/(n-2f) = 15 actually exceeds even ABD's
           n = 10 — Table I shows exactly that *)
        check "SODA storage < CASGC storage"
          (soda.Metrics.storage_max < casgc.Metrics.storage_final);
        check "SODA storage < ABD storage"
          (soda.Metrics.storage_max < abd.Metrics.storage_max);
        check "CASGC storage exceeds ABD's at fmax with delta=2"
          (casgc.Metrics.storage_final > abd.Metrics.storage_max);
        check "SODA storage < 2 (n/(n-f) at fmax)"
          (soda.Metrics.storage_max < 2.0);
        (* write cost: CASGC cheapest, ABD = n, SODA pays O(f^2) *)
        check "CASGC write < ABD write"
          (casgc.Metrics.write_cost.mean < abd.Metrics.write_cost.mean);
        check "ABD write < SODA write"
          (abd.Metrics.write_cost.mean < soda.Metrics.write_cost.mean);
        check "SODA write within 5f^2"
          (soda.Metrics.write_cost.max
          <= 5.0 *. float_of_int (Params.f params * Params.f params));
        (* read cost: SODA cheapest when quiescent *)
        check "SODA read < CASGC read"
          (soda.Metrics.read_cost.mean < casgc.Metrics.read_cost.mean);
        check "CASGC read < ABD read"
          (casgc.Metrics.read_cost.mean < abd.Metrics.read_cost.mean));
    Alcotest.test_case
      "the erasure-coding win of the introduction: two orders of magnitude \
       on 100 servers"
      `Quick (fun () ->
        (* "to store a value of 1 TB across a 100 server system, ABD
           blows up the worst-case storage cost to 100 TB ... with an
           [100, 50] MDS code the storage cost is simply 2 TB" *)
        let params = Params.make ~n:100 ~f:49 () in
        let w =
          Workload.sequential ~params ~value_len:8192 ~seed:1 ~rounds:1 ()
        in
        let soda = summarize Runner.Soda w in
        Alcotest.(check bool) "~2 units, not 100" true
          (soda.Metrics.storage_max < 2.1);
        let abd = summarize Runner.Abd w in
        Alcotest.(check bool) "ABD pays 100" true
          (abs_float (abd.Metrics.storage_max -. 100.0) < 1e-6);
        Alcotest.(check bool) "~50x apart" true
          (abd.Metrics.storage_max /. soda.Metrics.storage_max > 45.0));
    Alcotest.test_case
      "CAS without garbage collection accumulates versions; CASGC and SODA \
       do not"
      `Quick (fun () ->
        let params = Params.make ~n:8 ~f:2 () in
        let run rounds algo =
          (summarize algo
             (Workload.sequential ~params ~value_len:1024 ~seed:3 ~rounds ()))
            .Metrics.storage_max
        in
        (* CAS's storage grows linearly in the number of writes *)
        Alcotest.(check bool) "CAS grows" true
          (run 8 (Runner.Cas { gc_depth = None })
          > 1.9 *. run 3 (Runner.Cas { gc_depth = None }));
        (* CASGC's and SODA's do not *)
        Alcotest.(check bool) "CASGC flat" true
          (abs_float
             (run 8 (Runner.Cas { gc_depth = Some 2 })
             -. run 3 (Runner.Cas { gc_depth = Some 2 }))
          < 1e-9);
        Alcotest.(check bool) "SODA flat" true
          (abs_float (run 8 Runner.Soda -. run 3 Runner.Soda) < 1e-9));
    Alcotest.test_case
      "SODA tolerates f = n - k failures where CAS tolerates (n - k) / 2"
      `Quick (fun () ->
        (* claim (iii) of the comparison in Section I-B, read off the
           derived parameters *)
        let params = Params.make ~n:10 ~f:4 () in
        Alcotest.(check int) "SODA k at f=4" 6 (Params.k_soda params);
        Alcotest.(check int) "CAS k at f=4" 2 (Params.k_cas params);
        (* for the same code dimension k = 6, CAS could only tolerate
           (10 - 6) / 2 = 2 crashes *)
        let cas_equivalent = Params.make ~n:10 ~f:2 () in
        Alcotest.(check int) "CAS needs f=2 for k=6" 6
          (Params.k_cas cas_equivalent);
        (* and a SODA deployment codes with exactly that [n, n - f] code *)
        let engine =
          Simnet.Engine.create ~seed:5 ~delay:(Simnet.Delay.constant 1.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params:(Params.make ~n:7 ~f:2 ())
            ~num_writers:1 ~num_readers:1 ()
        in
        Alcotest.(check string) "SODA codec at n=7, f=2" "rs-bch[7,5]"
          (Erasure.Mds.name (Soda.Deployment.config d).Soda.Config.code));
  ]

let () = Alcotest.run "paper-claims" [ ("claims", claims_tests) ]
