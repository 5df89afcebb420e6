(* The paper-reproduction experiments: one function per table/figure of
   the evaluation, each printing measured numbers next to the paper's
   formulas. See DESIGN.md for the experiment index and EXPERIMENTS.md
   for a captured run. *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics
module Report = Harness.Report

let value_len = 4096

(* fragment-exact unit cost: what one coded element costs in value units
   once framing is accounted for *)
let unit_cost ~n ~k =
  float_of_int (n * Erasure.Splitter.fragment_size ~k ~value_len)
  /. float_of_int value_len

let summarize algo workload = Metrics.summarize (Runner.run algo workload)

(* ------------------------------------------------------------------ *)
(* Table I: ABD vs CASGC vs SODA at f = fmax *)

let table1 () =
  List.iter
    (fun n ->
      let f = Params.fmax ~n in
      let delta = 2 in
      let params = Params.make ~n ~f () in
      let seq ?(rounds = delta + 2) () =
        Workload.sequential ~params ~value_len ~seed:42 ~rounds ()
      in
      let abd = summarize Runner.Abd (seq ()) in
      let casgc = summarize (Runner.Cas { gc_depth = Some delta }) (seq ()) in
      let soda = summarize Runner.Soda (seq ()) in
      let fn = float_of_int n in
      let k_cas = float_of_int (Params.k_cas params) in
      (* steady-state storage: the paper's CASGC formula describes the
         post-GC state; the peak additionally holds the in-flight
         pre-written version *)
      let row name (s : Metrics.summary) ~w_paper ~r_paper ~s_paper =
        [ name;
          Report.f2 s.Metrics.write_cost.mean;
          w_paper;
          Report.f2 s.Metrics.read_cost.mean;
          r_paper;
          Report.f2 s.Metrics.storage_final;
          Report.f2 s.Metrics.storage_max;
          s_paper;
          (if s.Metrics.liveness && s.Metrics.atomic then "yes" else "NO")
        ]
      in
      Report.table
        ~title:
          (Printf.sprintf
             "Table I reproduction: n=%d, f=fmax=%d, delta=%d (quiescent \
              reads, delta_w=0)"
             n f delta)
        ~header:
          [ "algorithm"; "write"; "(paper)"; "read"; "(paper)"; "storage";
            "peak"; "(paper)"; "atomic+live"
          ]
        [ row "ABD" abd ~w_paper:(Report.f2 fn) ~r_paper:(Report.f2 fn)
            ~s_paper:(Report.f2 fn);
          row
            (Printf.sprintf "CASGC(%d)" delta)
            casgc
            ~w_paper:(Report.f2 (fn /. k_cas))
            ~r_paper:(Report.f2 (fn /. k_cas))
            ~s_paper:(Report.f2 (fn /. k_cas *. float_of_int (delta + 1)));
          row "SODA" soda
            ~w_paper:(Printf.sprintf "<=%.0f" (5.0 *. float_of_int (f * f)))
            ~r_paper:(Report.f2 (fn /. float_of_int (n - f)))
            ~s_paper:(Report.f2 (fn /. float_of_int (n - f)))
        ])
    [ 10; 20; 50 ]

(* ------------------------------------------------------------------ *)
(* Table I under concurrency: the elasticity argument of Section I-B *)

let table1_concurrent () =
  let n = 10 in
  let f = Params.fmax ~n in
  let delta = 2 in
  let params = Params.make ~n ~f () in
  let workload =
    Workload.concurrent ~params ~value_len ~seed:77 ~num_writers:2
      ~num_readers:2 ~ops_per_client:4 ()
  in
  let rows =
    List.map
      (fun (name, algo) ->
        let s = summarize algo workload in
        [ name;
          Report.f2 s.Metrics.write_cost.mean;
          Report.f2 s.Metrics.read_cost.mean;
          Report.f2 s.Metrics.read_cost.max;
          Report.f2 s.Metrics.storage_final;
          Report.f2 s.Metrics.storage_max;
          (if s.Metrics.liveness && s.Metrics.atomic then "yes" else "NO")
        ])
      [ ("ABD", Runner.Abd);
        (Printf.sprintf "CASGC(%d)" delta, Runner.Cas { gc_depth = Some delta });
        ("SODA", Runner.Soda)
      ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Table I under concurrency (n=%d, f=%d, 2 writers + 2 readers           overlapping): SODA's read cost is elastic — it grows only with           the overlap a read actually sees — while CASGC's storage pays           (delta+1) rigidly"
         n f)
    ~header:
      [ "algorithm"; "write mean"; "read mean"; "read max"; "storage";
        "peak"; "atomic+live"
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Theorem 5.3: storage vs f *)

let storage () =
  let n = 20 in
  let rows =
    List.map
      (fun f ->
        let params = Params.make ~n ~f () in
        let w = Workload.sequential ~params ~value_len ~seed:7 ~rounds:2 () in
        let soda = summarize Runner.Soda w in
        let k = Params.k_soda params in
        [ Report.i f;
          Report.i k;
          Report.f2 soda.Metrics.storage_max;
          Report.f2 (float_of_int n /. float_of_int (n - f));
          Report.f2 (unit_cost ~n ~k);
          Report.i n
        ])
      (List.init (Params.fmax ~n) (fun i -> i + 1))
  in
  Report.table
    ~title:(Printf.sprintf "Thm 5.3: SODA total storage vs f (n=%d)" n)
    ~header:
      [ "f"; "k"; "measured"; "n/(n-f)"; "formula+framing"; "ABD (=n)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Theorem 5.4: write cost vs f *)

let write_cost () =
  let rows =
    List.map
      (fun f ->
        let n = (2 * f) + 1 in
        let params = Params.make ~n ~f () in
        let w = Workload.sequential ~params ~value_len ~seed:7 ~rounds:2 () in
        let soda = summarize Runner.Soda w in
        let abd = summarize Runner.Abd w in
        [ Report.i f;
          Report.i n;
          Report.f2 soda.Metrics.write_cost.mean;
          Report.f2 (5.0 *. float_of_int (f * f));
          Report.f2 abd.Metrics.write_cost.mean
        ])
      (List.init 12 (fun i -> i + 1))
  in
  Report.table
    ~title:"Thm 5.4: SODA write communication cost vs f (n = 2f+1)"
    ~header:[ "f"; "n"; "SODA measured"; "bound 5f^2"; "ABD (=n)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Theorem 5.6: read cost vs delta_w *)

let read_cost () =
  let n = 10 and f = 3 in
  let params = Params.make ~n ~f () in
  let buckets = Hashtbl.create 8 in
  (* the 60 seeded storms are independent simulations: sweep them across
     domains *)
  let per_seed =
    List.init 60 (fun seed ->
        Workload.read_with_write_storm ~params ~value_len ~seed ~writers:4
          ~writes_per_writer:2 ())
    |> Runner.run_sweep Runner.Soda
    |> List.map Metrics.reads_with_delta_w
  in
  List.iter
    (List.iter (fun (_, dw, cost) ->
         let existing =
           match Hashtbl.find_opt buckets dw with
           | Some l -> l
           | None -> []
         in
         Hashtbl.replace buckets dw (cost :: existing)))
    per_seed;
  let u = unit_cost ~n ~k:(n - f) in
  let rows =
    (Hashtbl.fold
     [@lint.allow
       "D3: the fold materializes the buckets into a list that is sorted \
        by key on the next line"])
      (fun dw costs acc -> (dw, costs) :: acc)
      buckets []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (dw, costs) ->
           let s = Metrics.stats_of costs in
           [ Report.i dw;
             Report.i s.Metrics.count;
             Report.f2 s.Metrics.mean;
             Report.f2 s.Metrics.max;
             Report.f2 (u *. float_of_int (dw + 1))
           ])
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Thm 5.6: SODA read cost vs measured delta_w (n=%d, f=%d, 60 seeded \
          write storms)"
         n f)
    ~header:[ "delta_w"; "reads"; "mean cost"; "max cost"; "n/(n-f)*(dw+1)" ]
    rows;
  print_endline
    "note: reads whose window admits straggler deliveries of writes started\n\
     just before T1 can exceed the formula; the sound bound uses concurrent\n\
     writes (Metrics.concurrent_writes), see DESIGN.md."

(* ------------------------------------------------------------------ *)
(* Theorem 5.7: latency *)

let latency () =
  let delta = 1.0 in
  let rows =
    List.map
      (fun f ->
        let params = Params.make ~n:10 ~f () in
        let w =
          Workload.sequential ~params ~value_len ~seed:5
            ~delay:(Simnet.Delay.constant delta) ~rounds:3 ()
        in
        let soda = summarize Runner.Soda w in
        [ Report.i f;
          Report.f2 soda.Metrics.write_latency.max;
          Report.f2 (5.0 *. delta);
          Report.f2 soda.Metrics.read_latency.max;
          Report.f2 (6.0 *. delta)
        ])
      [ 1; 2; 3; 4 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Thm 5.7: SODA operation latency under constant message delay \
          Delta=%.1f (n=10)"
         delta)
    ~header:[ "f"; "write max"; "bound 5D"; "read max"; "bound 6D" ]
    rows

(* ------------------------------------------------------------------ *)
(* Theorem 6.3: SODAerr storage and read cost vs e *)

let err_storage () =
  let n = 20 and f = 3 in
  let rows =
    List.map
      (fun e ->
        let params = Params.make ~n ~f ~e () in
        let coords = List.init e (fun i -> i) in
        let w = Workload.sequential ~params ~value_len ~seed:11 ~rounds:2 () in
        let w = Workload.with_errors w coords in
        let soda = summarize Runner.Soda w in
        let k = Params.k_soda params in
        [ Report.i e;
          Report.i k;
          Report.f2 soda.Metrics.storage_max;
          Report.f2 (float_of_int n /. float_of_int (n - f - (2 * e)));
          (if soda.Metrics.liveness && soda.Metrics.atomic then "yes" else "NO")
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Thm 6.3(i): SODAerr total storage vs e (n=%d, f=%d, e corrupt \
          disks active)"
         n f)
    ~header:[ "e"; "k=n-f-2e"; "measured"; "n/(n-f-2e)"; "atomic+live" ]
    rows

let err_read () =
  let n = 20 and f = 3 in
  let rows =
    List.concat_map
      (fun e ->
        let params = Params.make ~n ~f ~e () in
        let coords = List.init e (fun i -> 2 * i) in
        let w = Workload.sequential ~params ~value_len ~seed:13 ~rounds:3 () in
        let w = Workload.with_errors w coords in
        let soda = summarize Runner.Soda w in
        [ [ Report.i e;
            Report.f2 soda.Metrics.read_cost.mean;
            Report.f2 (float_of_int n /. float_of_int (n - f - (2 * e)));
            Report.f2 soda.Metrics.write_cost.mean;
            Printf.sprintf "<=%.0f" (5.0 *. float_of_int (f * f));
            (if soda.Metrics.liveness && soda.Metrics.atomic then "yes"
             else "NO")
          ]
        ])
      [ 0; 1; 2 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Thm 6.3(ii,iii): SODAerr costs vs e (n=%d, f=%d, quiescent reads, \
          corrupt disks active)"
         n f)
    ~header:
      [ "e"; "read"; "n/(n-f-2e)"; "write"; "bound"; "atomic+live" ]
    rows

(* ------------------------------------------------------------------ *)
(* Section I-B: storage crossover between CASGC and SODA as delta grows *)

let crossover () =
  let n = 10 in
  let f = Params.fmax ~n in
  let params = Params.make ~n ~f () in
  let soda =
    summarize Runner.Soda
      (Workload.sequential ~params ~value_len ~seed:3 ~rounds:8 ())
  in
  let rows =
    List.map
      (fun delta ->
        let casgc =
          summarize
            (Runner.Cas { gc_depth = Some delta })
            (Workload.sequential ~params ~value_len ~seed:3 ~rounds:8 ())
        in
        let formula =
          float_of_int n /. float_of_int (n - (2 * f))
          *. float_of_int (delta + 1)
        in
        [ Report.i delta;
          Report.f2 casgc.Metrics.storage_max;
          Report.f2 formula;
          Report.f2 soda.Metrics.storage_max;
          Report.f2 casgc.Metrics.write_cost.mean;
          Report.f2 soda.Metrics.write_cost.mean
        ])
      [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Storage/communication trade-off vs delta (n=%d, f=fmax=%d): SODA \
          wins storage at every delta, CASGC wins write cost"
         n f)
    ~header:
      [ "delta"; "CASGC storage"; "formula"; "SODA storage"; "CASGC write";
        "SODA write"
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Replication baselines: ABD vs LDR vs SODA *)

let replication_baselines () =
  let rows =
    List.map
      (fun f ->
        let n = (2 * f) + 1 in
        let params = Params.make ~n ~f () in
        let w = Workload.sequential ~params ~value_len ~seed:3 ~rounds:2 () in
        let costs algo =
          let s = summarize algo w in
          [ Report.f2 s.Metrics.write_cost.mean;
            Report.f2 s.Metrics.read_cost.mean;
            Report.f2 s.Metrics.storage_max
          ]
        in
        Report.i f
        :: List.concat_map costs [ Runner.Abd; Runner.Ldr; Runner.Soda ])
      [ 1; 2; 3; 4; 5 ]
  in
  Report.table
    ~title:
      "Replication baselines vs SODA (n = 2f+1 servers; LDR uses 2f+1 directories + 2f+1 replicas); quiescent ops"
    ~header:
      [ "f"; "ABD w"; "ABD r"; "ABD stor"; "LDR w"; "LDR r"; "LDR stor";
        "SODA w"; "SODA r"; "SODA stor"
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Repair extension: bandwidth and duration of restoring a server *)

let repair () =
  let rows =
    List.map
      (fun f ->
        let n = (2 * f) + 2 in
        let params = Params.make ~n ~f () in
        let engine =
          Simnet.Engine.create ~seed:31 ~delay:(Simnet.Delay.constant 1.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Workload.value ~len:value_len ~seed:31 ~index:0)
            ~value_len ~num_writers:1 ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        Soda.Deployment.write d ~writer:0 ~at:0.0
          (Workload.value ~len:value_len ~seed:31 ~index:1);
        Soda.Deployment.crash_server d ~coordinate:1 ~at:20.0;
        let op = Soda.Deployment.repair_server d ~coordinate:1 ~at:50.0 in
        Simnet.Engine.run engine;
        let cost = Cost.comm_of_op (Soda.Deployment.cost d) ~op in
        let duration =
          let start = ref nan and finish = ref nan in
          List.iter
            (function
              | Probe.Repair_started { server = 1; time } -> start := time
              | Probe.Repaired { server = 1; time; _ } -> finish := time
              | _ -> ())
            (Probe.events (Soda.Deployment.probe d));
          !finish -. !start
        in
        [ Report.i f;
          Report.i n;
          Report.f2 cost;
          Report.f2 (float_of_int (n - 1) /. float_of_int (n - f));
          Report.f2 duration
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Report.table
    ~title:
      "Repair extension (paper future work (ii)): cost of restoring one crashed server (n = 2f+2, Delta = 1)"
    ~header:
      [ "f"; "n"; "repair cost"; "(n-1)/(n-f)"; "duration (x Delta)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Latency distributions under random delays *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let latency_dist () =
  let params = Params.make ~n:10 ~f:4 () in
  let delta = 2.0 in
  let delay = Simnet.Delay.uniform ~lo:0.1 ~hi:delta in
  let algorithms =
    [ ("ABD", Runner.Abd);
      ("CASGC(2)", Runner.Cas { gc_depth = Some 2 });
      ("SODA", Runner.Soda)
    ]
  in
  let rows =
    List.concat_map
      (fun (name, algo) ->
        (* 40 seeded runs of 3 sequential rounds each: 120 writes + 120
           reads per algorithm *)
        let runs =
          List.init 40 (fun seed ->
              Workload.sequential ~params ~value_len ~seed ~delay ~rounds:3 ())
          |> Runner.run_sweep algo
        in
        let latencies kind =
          List.concat_map
            (fun r ->
              History.records r.Runner.history
              |> List.filter_map (fun o ->
                     if o.History.kind = kind then
                       Option.map
                         (fun finish -> finish -. o.History.invoked_at)
                         o.History.responded_at
                     else None))
            runs
          |> Array.of_list
        in
        List.map
          (fun (kind_name, kind, bound) ->
            let l = latencies kind in
            Array.sort compare l;
            [ name;
              kind_name;
              Report.f2 (percentile l 0.50);
              Report.f2 (percentile l 0.90);
              Report.f2 (percentile l 0.99);
              Report.f2 (if Array.length l = 0 then nan else l.(Array.length l - 1));
              bound
            ])
          [ ("write", History.Write,
             if name = "SODA" then Report.f2 (5.0 *. delta) else "-");
            ("read", History.Read,
             if name = "SODA" then Report.f2 (6.0 *. delta) else "-")
          ])
      algorithms
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Operation latency distribution, delays uniform in (0, %.1f] (n=10,           f=4, 120 ops per row)"
         delta)
    ~header:[ "algorithm"; "op"; "p50"; "p90"; "p99"; "max"; "SODA bound" ]
    rows

(* ------------------------------------------------------------------ *)
(* Metadata overhead: what the paper's cost model does not count *)

(* [--out FILE]: also write the per-algorithm message counts as JSON
   (Bench.emit; BENCH_msgs.json at the repo root is the committed
   baseline gated by tools/bench_diff).

   The self-healing plane must not shift these numbers: every run here
   deploys with [healing = false] (the Runner default), under which no
   heartbeat or scrub event is ever scheduled, so the committed
   BENCH_msgs.json baseline doubles as the no-silent-regression gate
   for the plane's default-off posture. When healing IS armed, its
   traffic is metadata by construction — Heartbeat and Suspect_vote
   carry no coded data ([Messages.data_bytes] = 0), so it lands in
   [messages_meta]/[acks_sent], never [messages_data]. *)
let overhead opts =
  let params = Params.make ~n:10 ~f:4 () in
  let runner_row ?plane algo () =
    let w = Workload.sequential ~params ~value_len ~seed:17 ~rounds:4 () in
    let r = Runner.run ?plane algo w in
    let ops = float_of_int (History.size r.Runner.history) in
    ( float_of_int r.Runner.messages_sent /. ops,
      Cost.total_comm r.Runner.cost /. ops )
  in
  let measurements =
    [ ("abd", "ABD", runner_row Runner.Abd ());
      ("cas", "CAS", runner_row (Runner.Cas { gc_depth = None }) ());
      ("casgc(2)", "CASGC(2)", runner_row (Runner.Cas { gc_depth = Some 2 }) ());
      ("ldr", "LDR", runner_row Runner.Ldr ());
      ( "soda-unbatched",
        "SODA (broadcast)",
        runner_row Runner.Soda () );
      ( "soda",
        "SODA (batched)",
        runner_row ~plane:Soda.Config.batched_plane Runner.Soda () )
    ]
  in
  let rows =
    List.map
      (fun (_, label, (msgs, units)) ->
        [ label;
          Printf.sprintf "%.0f" msgs;
          Report.f2 units;
          Report.f2 (msgs /. Float.max 1e-9 units)
        ])
      measurements
  in
  Report.table
    ~title:
      "Message overhead per operation (n=10, f=4, quiescent): the paper's        cost model counts only data; broadcast READ-DISPERSE gossip is        O(n^2) messages per read, the batched plane coalesces it away"
    ~header:
      [ "algorithm"; "messages/op"; "data units/op"; "msgs per data unit" ]
    rows;
  Bench.emit ~echo:false opts ~bench:"msgs"
    (List.concat_map
       (fun (algo, _, (msgs, units)) ->
         [ Bench.row ~better:Lower algo "msgs_per_op" "msgs/op" msgs;
           Bench.row algo "data_units_per_op" "units/op" units
         ])
       measurements)

(* ------------------------------------------------------------------ *)
(* Throughput under closed-loop load (simulation-level figure) *)

let throughput () =
  let rows =
    List.map
      (fun (n, f) ->
        let params = Params.make ~n ~f () in
        let r =
          Harness.Closed_loop.run_soda ~params ~value_len:1024 ~seed:9
            ~num_writers:4 ~num_readers:4 ~ops_per_client:25 ()
        in
        let ops = History.size r.Harness.Closed_loop.history in
        [ Report.i n;
          Report.i f;
          Report.i ops;
          Report.f2 r.Harness.Closed_loop.sim_duration;
          Report.f2 (Harness.Closed_loop.ops_per_time r);
          Report.i r.Harness.Closed_loop.messages;
          Printf.sprintf "%.0f" (float_of_int ops /. r.Harness.Closed_loop.wall_seconds)
        ])
      [ (5, 2); (10, 4); (15, 7); (20, 9); (30, 14) ]
  in
  Report.table
    ~title:
      "SODA closed-loop throughput (4 writers + 4 readers, 25 ops each, uniform delays in [0.2, 2])"
    ~header:
      [ "n"; "f"; "ops"; "sim time"; "ops/sim-time"; "messages"; "ops/wall-s" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablation: chained MD-VALUE vs naive direct dispersal *)

let ablation_md () =
  (* cost side: measured write cost of both modes *)
  let cost_rows =
    List.map
      (fun f ->
        let n = (2 * f) + 1 in
        let params = Params.make ~n ~f () in
        let run md_mode =
          let engine =
            Simnet.Engine.create ~seed:21
              ~delay:(Simnet.Delay.uniform ~lo:0.2 ~hi:2.0) ()
          in
          let d =
            Soda.Deployment.deploy ~engine ~params
              ~initial_value:(Workload.value ~len:value_len ~seed:21 ~index:0)
              ~value_len ~md_mode ~num_writers:1 ~num_readers:1 ()
          in
          Soda.Deployment.write d ~writer:0 ~at:0.0
            (Workload.value ~len:value_len ~seed:21 ~index:1);
          Simnet.Engine.run engine;
          Cost.comm_of_op (Soda.Deployment.cost d) ~op:0
        in
        [ Report.i f;
          Report.i n;
          Report.f2 (run `Chained);
          Report.f2 (run `Direct);
          Report.f2 (float_of_int n /. float_of_int (n - f))
        ])
      [ 1; 2; 4; 6; 8 ]
  in
  Report.table
    ~title:"Ablation: write cost, chained MD-VALUE vs naive direct dispersal"
    ~header:[ "f"; "n"; "chained (SODA)"; "direct"; "n/(n-f)" ]
    cost_rows;
  (* uniformity side: writer crash mid-dispersal, then f server crashes;
     how often do subsequent reads still complete? *)
  let trials = 60 in
  let count_ok md_mode =
    (* each trial owns its engine, so the seeds fan out across domains *)
    Harness.Parallel.map
      (fun seed ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine =
          Simnet.Engine.create ~seed
            ~delay:(Simnet.Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Workload.value ~len:value_len ~seed ~index:0)
            ~value_len ~md_mode ~disperse_step:0.5 ~num_writers:1
            ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0
          (Workload.value ~len:value_len ~seed ~index:1);
        (* writer dies mid-dispersal; then f servers die *)
        Soda.Deployment.crash_writer d ~writer:0 ~at:3.0;
        Soda.Deployment.crash_server d ~coordinate:(seed mod 7) ~at:10.0;
        Soda.Deployment.crash_server d ~coordinate:((seed + 2) mod 7) ~at:10.0;
        Soda.Deployment.crash_server d ~coordinate:((seed + 4) mod 7) ~at:10.0;
        let completed = ref false in
        Soda.Deployment.read d ~reader:0 ~at:50.0
          ~on_done:(fun _ -> completed := true)
          ();
        Simnet.Engine.run engine;
        !completed)
      (List.init trials Fun.id)
    |> List.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Ablation: read liveness after writer crash mid-dispersal + f \
          server crashes (n=7, f=3, %d trials)"
         trials)
    ~header:[ "dispersal"; "reads completed"; "of" ]
    [ [ "chained (SODA)"; Report.i (count_ok `Chained); Report.i trials ];
      [ "direct"; Report.i (count_ok `Direct); Report.i trials ]
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: READ-DISPERSE gossip vs none, with a crashed reader *)

let ablation_gossip () =
  let run plane =
    let params = Params.make ~n:10 ~f:3 () in
    (* messages TO the reader (pid 11: 10 servers, then the writer) crawl,
       so the reader is registered everywhere long before any coded
       element reaches it — and it crashes in that window, mid-read *)
    let reader_pid = 11 in
    let delay =
      Simnet.Delay.per_link (fun ~src:_ ~dst ->
          if dst = reader_pid then Simnet.Delay.constant 50.0
          else Simnet.Delay.constant 1.0)
    in
    let engine = Simnet.Engine.create ~seed:9 ~delay () in
    let d =
      Soda.Deployment.deploy ~engine ~params
        ~initial_value:(Workload.value ~len:value_len ~seed:9 ~index:0)
        ~value_len ~plane
        ~num_writers:1 ~num_readers:1 ()
    in
    Probe.record (Soda.Deployment.probe d);
    (* read-get replies take 50, so registration happens around t=52;
       the first relay would reach the reader around t=103 *)
    Soda.Deployment.read d ~reader:0 ~at:0.0 ();
    Soda.Deployment.crash_reader d ~reader:0 ~at:60.0;
    (* a stream of subsequent writes; without gossip every one of them is
       relayed to the dead reader *)
    let writes = 12 in
    for i = 1 to writes do
      Soda.Deployment.write d ~writer:0 ~at:(70.0 +. (float_of_int i *. 40.0))
        (Workload.value ~len:value_len ~seed:9 ~index:i)
    done;
    Simnet.Engine.run engine;
    let relays = Probe.relays_of (Soda.Deployment.probe d) ~rid:0 in
    let still_registered =
      List.exists
        (fun c ->
          not
            (List.is_empty
               (Soda.Server.registered_reads
                  (Soda.Deployment.server d ~coordinate:c))))
        (List.init 10 Fun.id)
    in
    (relays, still_registered)
  in
  let with_gossip, reg_with = run Soda.Config.default_plane in
  let without_gossip, reg_without = run Soda.Config.gossip_off_plane in
  Report.table
    ~title:
      "Ablation: relays sent to a crashed reader across 12 subsequent writes \
       (n=10, f=3)"
    ~header:
      [ "variant"; "coded elements relayed"; "reader still registered at end" ]
    [ [ "READ-DISPERSE gossip (SODA)";
        Report.i with_gossip;
        (if reg_with then "yes" else "no")
      ];
      [ "no gossip (ORCAS-B-like)";
        Report.i without_gossip;
        (if reg_without then "YES (leaks forever)" else "no")
      ]
    ]
