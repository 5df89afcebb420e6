(* Tests for the baseline algorithms: ABD (replication) and CAS/CASGC
   (erasure-coded, the paper's Table I comparators). Same acceptance
   criteria as SODA — liveness and atomicity under random schedules and
   crashes — plus their specific cost profiles. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Atomicity = Protocol.Atomicity
module Workload = Harness.Workload
module Runner = Harness.Runner

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let accept (r : Runner.result) =
  History.all_complete r.Runner.history
  && Atomicity.check_tagged ~initial_value:r.Runner.initial_value
       (History.records r.Runner.history)
     = Ok ()

let params_gen =
  QCheck2.Gen.(
    int_range 3 15 >>= fun n ->
    int_range 1 (max 1 (Params.fmax ~n)) >|= fun f -> Params.make ~n ~f ())

let crashes_gen params =
  QCheck2.Gen.(
    shuffle_a (Array.init (Params.n params) (fun i -> i)) >>= fun perm ->
    list_size (return (Params.f params)) (float_range 0.0 400.0)
    >|= fun times -> List.mapi (fun i t -> (perm.(i), t)) times)

(* ------------------------------------------------------------------ *)
(* ABD *)

let abd_tests =
  [ Alcotest.test_case "write then read round-trips" `Quick (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let engine = Engine.create ~seed:4 ~delay:(Delay.constant 1.0) () in
        let d =
          Baselines.Abd.deploy ~engine ~params
            ~initial_value:(Bytes.of_string "init") ~num_writers:1
            ~num_readers:1 ()
        in
        let written = Bytes.of_string "replicated everywhere" in
        let result = ref None in
        Baselines.Abd.write d ~writer:0 ~at:0.0 written;
        Baselines.Abd.read d ~reader:0 ~at:50.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        (match !result with
        | Some v -> Alcotest.(check bool) "value" true (Bytes.equal v written)
        | None -> Alcotest.fail "read did not complete"));
    qtest ~count:50 "liveness + atomicity on random workloads"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 100_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2
            ~delay:(Delay.exponential ~mean:1.0 ~cap:8.0) ()
        in
        accept (Runner.run Runner.Abd w));
    qtest ~count:40 "liveness + atomicity with f crashes"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        crashes_gen params >>= fun crashes ->
        int_range 0 100_000 >|= fun seed -> (params, crashes, seed))
      (fun (params, crashes, seed) ->
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2 ()
        in
        accept (Runner.run Runner.Abd (Workload.with_crashes w crashes)));
    qtest ~count:30 "costs: storage = n, write = n, quiescent read = n"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 10_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        let w = Workload.sequential ~params ~value_len:512 ~seed ~rounds:2 () in
        let r = Runner.run Runner.Abd w in
        let n = float_of_int (Params.n params) in
        let close a b = abs_float (a -. b) < 1e-9 in
        close (Cost.max_total_storage r.Runner.cost) n
        && History.records r.Runner.history
           |> List.for_all (fun o ->
                  close (Cost.comm_of_op r.Runner.cost ~op:o.History.op) n))
  ]

(* ------------------------------------------------------------------ *)
(* CAS / CASGC *)

let cas_tests =
  [ Alcotest.test_case "write then read round-trips (CAS)" `Quick (fun () ->
        let params = Params.make ~n:7 ~f:2 () in
        let engine = Engine.create ~seed:8 ~delay:(Delay.constant 1.0) () in
        let d =
          Baselines.Cas.deploy ~engine ~params
            ~initial_value:(Bytes.of_string "init") ~num_writers:1
            ~num_readers:1 ()
        in
        let written = Bytes.of_string "coded across the quorum system" in
        let result = ref None in
        Baselines.Cas.write d ~writer:0 ~at:0.0 written;
        Baselines.Cas.read d ~reader:0 ~at:50.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        (match !result with
        | Some v -> Alcotest.(check bool) "value" true (Bytes.equal v written)
        | None -> Alcotest.fail "read did not complete"));
    qtest ~count:50 "CAS: liveness + atomicity on random workloads"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 100_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2
            ~delay:(Delay.exponential ~mean:1.0 ~cap:8.0) ()
        in
        accept (Runner.run (Runner.Cas { gc_depth = None }) w));
    qtest ~count:40 "CAS: liveness + atomicity with f crashes"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        crashes_gen params >>= fun crashes ->
        int_range 0 100_000 >|= fun seed -> (params, crashes, seed))
      (fun (params, crashes, seed) ->
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2 ()
        in
        accept
          (Runner.run (Runner.Cas { gc_depth = None })
             (Workload.with_crashes w crashes)));
    qtest ~count:40 "CASGC: liveness + atomicity within the delta bound"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 100_000 >>= fun seed ->
        int_range 2 5 >|= fun delta -> (params, seed, delta))
      (fun (params, seed, delta) ->
        (* two writers: at most 2 writes overlap any read, within delta *)
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2 ()
        in
        let r = Runner.run (Runner.Cas { gc_depth = Some delta }) w in
        accept r && r.Runner.read_restarts = 0);
    qtest ~count:30
      "costs: write = read = n/(n-2f); CAS storage grows with writes"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 10_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        let rounds = 3 in
        let w =
          Workload.sequential ~params ~value_len:512 ~seed ~rounds ()
        in
        let r = Runner.run (Runner.Cas { gc_depth = None }) w in
        let n = Params.n params and k = Params.k_cas params in
        let frag = Erasure.Splitter.fragment_size ~k ~value_len:512 in
        let unit_cost = float_of_int (n * frag) /. 512.0 in
        let close a b = abs_float (a -. b) < 1e-9 in
        (* every version ever written is retained: initial + rounds *)
        close
          (Cost.max_total_storage r.Runner.cost)
          (unit_cost *. float_of_int (rounds + 1))
        && History.records r.Runner.history
           |> List.for_all (fun o ->
                  close (Cost.comm_of_op r.Runner.cost ~op:o.History.op) unit_cost));
    qtest ~count:30 "CASGC bounds storage at (delta + 1) versions"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 10_000 >>= fun seed ->
        int_range 0 2 >|= fun delta -> (params, seed, delta))
      (fun (params, seed, delta) ->
        let rounds = 5 in
        let w = Workload.sequential ~params ~value_len:512 ~seed ~rounds () in
        let r = Runner.run (Runner.Cas { gc_depth = Some delta }) w in
        let n = Params.n params and k = Params.k_cas params in
        let frag = Erasure.Splitter.fragment_size ~k ~value_len:512 in
        let unit_cost = float_of_int (n * frag) /. 512.0 in
        (* sequential workload: at most delta+1 finalized versions, plus
           one in-flight pre-write version transiently *)
        Cost.max_total_storage r.Runner.cost
        <= (unit_cost *. float_of_int (delta + 2)) +. 1e-9);
    Alcotest.test_case "CASGC storage strictly below CAS on a long run"
      `Quick (fun () ->
        let params = Params.make ~n:8 ~f:2 () in
        let w = Workload.sequential ~params ~value_len:512 ~seed:5 ~rounds:8 () in
        let cas = Runner.run (Runner.Cas { gc_depth = None }) w in
        let casgc = Runner.run (Runner.Cas { gc_depth = Some 1 }) w in
        Alcotest.(check bool) "bounded" true
          (Cost.max_total_storage casgc.Runner.cost
          < Cost.max_total_storage cas.Runner.cost))
  ]

(* ------------------------------------------------------------------ *)
(* LDR *)

(* a self-contained runner for LDR that crashes directories and replicas
   separately (Harness.Runner numbers them as one coordinate range) *)
let run_ldr ~params ~seed ?(crash_dirs = []) ?(crash_replicas = [])
    ~ops () =
  let initial_value = Bytes.make 96 'i' in
  let engine =
    Engine.create ~seed ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  let d =
    Baselines.Ldr.deploy ~engine ~params ~initial_value ~num_writers:2
      ~num_readers:2 ()
  in
  (* coordinates number the 2f+1 directories first, then the replicas *)
  let directories = (2 * Params.f params) + 1 in
  List.iter
    (fun (i, at) -> Baselines.Ldr.crash_server d ~coordinate:i ~at)
    crash_dirs;
  List.iter
    (fun (i, at) ->
      Baselines.Ldr.crash_server d ~coordinate:(directories + i) ~at)
    crash_replicas;
  for i = 0 to ops - 1 do
    let t = float_of_int i *. 50.0 in
    Baselines.Ldr.write d ~writer:(i mod 2) ~at:t
      (Bytes.make 96 (Char.chr (Char.code 'a' + i)));
    Baselines.Ldr.read d ~reader:(i mod 2) ~at:(t +. 10.0) ()
  done;
  Engine.run engine;
  (d, initial_value)

let ldr_accept (d, initial_value) =
  History.all_complete (Baselines.Ldr.history d)
  && Atomicity.check_tagged ~initial_value
       (History.records (Baselines.Ldr.history d))
     = Ok ()

let ldr_tests =
  [ Alcotest.test_case "write then read round-trips" `Quick (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let engine = Engine.create ~seed:2 ~delay:(Delay.constant 1.0) () in
        let d =
          Baselines.Ldr.deploy ~engine ~params
            ~initial_value:(Bytes.of_string "init") ~num_writers:1
            ~num_readers:1 ()
        in
        let written = Bytes.of_string "directories point to replicas" in
        let result = ref None in
        Baselines.Ldr.write d ~writer:0 ~at:0.0 written;
        Baselines.Ldr.read d ~reader:0 ~at:50.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        match !result with
        | Some v -> Alcotest.(check bool) "value" true (Bytes.equal v written)
        | None -> Alcotest.fail "read did not complete");
    qtest ~count:50 "liveness + atomicity on random interleavings"
      QCheck2.Gen.(
        int_range 1 5 >>= fun f ->
        int_range 0 100_000 >|= fun seed -> (f, seed))
      (fun (f, seed) ->
        let params = Params.make ~n:((2 * f) + 1) ~f () in
        ldr_accept (run_ldr ~params ~seed ~ops:4 ()));
    qtest ~count:40 "liveness + atomicity with f directory and f replica \
                     crashes"
      QCheck2.Gen.(
        int_range 1 4 >>= fun f ->
        int_range 0 100_000 >>= fun seed ->
        shuffle_a (Array.init ((2 * f) + 1) (fun i -> i)) >>= fun dperm ->
        shuffle_a (Array.init ((2 * f) + 1) (fun i -> i)) >|= fun rperm ->
        (f, seed, Array.sub dperm 0 f, Array.sub rperm 0 f))
      (fun (f, seed, dcrash, rcrash) ->
        let params = Params.make ~n:((2 * f) + 1) ~f () in
        let stagger i = float_of_int (i * 37) in
        ldr_accept
          (run_ldr ~params ~seed
             ~crash_dirs:(Array.to_list (Array.mapi (fun i c -> (c, stagger i)) dcrash))
             ~crash_replicas:(Array.to_list (Array.mapi (fun i c -> (c, stagger i +. 11.0)) rcrash))
             ~ops:3 ()));
    Alcotest.test_case "costs: storage = write = 2f+1, quiescent read <= f+1"
      `Quick (fun () ->
        let f = 2 in
        let params = Params.make ~n:5 ~f () in
        let value_len = 512 in
        let initial_value = Bytes.make value_len 'i' in
        let engine = Engine.create ~seed:4 ~delay:(Delay.constant 1.0) () in
        let d =
          Baselines.Ldr.deploy ~engine ~params ~initial_value ~num_writers:1
            ~num_readers:1 ()
        in
        Baselines.Ldr.write d ~writer:0 ~at:0.0 (Bytes.make value_len 'A');
        Baselines.Ldr.read d ~reader:0 ~at:50.0 ();
        Engine.run engine;
        let cost = Baselines.Ldr.cost d in
        let close a b = abs_float (a -. b) < 1e-9 in
        Alcotest.(check bool) "storage 2f+1" true
          (close (Cost.max_total_storage cost) 5.0);
        Alcotest.(check bool) "write 2f+1" true
          (close (Cost.comm_of_op cost ~op:0) 5.0);
        let read_cost = Cost.comm_of_op cost ~op:1 in
        Alcotest.(check bool)
          (Printf.sprintf "read %.2f <= f+1" read_cost)
          true
          (read_cost <= float_of_int (f + 1) +. 1e-9))
  ]

(* ------------------------------------------------------------------ *)
(* Every protocol over lossy links *)

(* Deploy on the reliable channel with 20% loss on every link, drive
   [w]'s schedule through the register surface every protocol shares,
   and return the history, the initial value, the transmissions the
   links lost and the sends the channel gave up on. *)
let run_lossy (type d) (module R : Baselines.Register.S with type t = d)
    (deploy : _ -> d) (w : Workload.t) =
  let engine =
    Engine.create ~seed:w.Workload.seed
      ~transport:(`Reliable Simnet.Channel.default) ~delay:w.Workload.delay ()
  in
  Engine.set_loss engine 0.2;
  let d = deploy engine in
  List.iter
    (function
      | Workload.Write { writer; at; value } -> R.write d ~writer ~at value
      | Workload.Read { reader; at } -> R.read d ~reader ~at ())
    w.Workload.ops;
  Engine.run engine;
  ( R.history d,
    R.initial_value d,
    Engine.messages_lost engine,
    Engine.sends_abandoned engine )

let lossy_tests =
  let params = Params.make ~n:5 ~f:2 () in
  let initial_value = Bytes.make 96 'i' in
  let protocols =
    [ ( "ABD",
        run_lossy (module Baselines.Abd) (fun engine ->
            Baselines.Abd.deploy ~engine ~params ~initial_value ~num_writers:2
              ~num_readers:2 ()) );
      ( "CAS",
        run_lossy (module Baselines.Cas) (fun engine ->
            Baselines.Cas.deploy ~engine ~params ~initial_value ~num_writers:2
              ~num_readers:2 ()) );
      ( "CASGC(2)",
        run_lossy (module Baselines.Cas) (fun engine ->
            Baselines.Cas.deploy ~engine ~params ~gc_depth:2 ~initial_value
              ~num_writers:2 ~num_readers:2 ()) );
      ( "LDR",
        run_lossy (module Baselines.Ldr) (fun engine ->
            Baselines.Ldr.deploy ~engine ~params ~initial_value ~num_writers:2
              ~num_readers:2 ()) );
      ( "SODA",
        run_lossy (module Soda.Deployment) (fun engine ->
            Soda.Deployment.deploy ~engine ~params ~initial_value
              ~num_writers:2 ~num_readers:2 ()) )
    ]
  in
  [ Alcotest.test_case
      "every protocol is live and atomic over 20% loss, nothing abandoned"
      `Quick (fun () ->
        List.iter
          (fun (name, run) ->
            for seed = 1 to 4 do
              let w =
                Workload.concurrent ~params ~value_len:96 ~seed ~num_writers:2
                  ~num_readers:2 ~ops_per_client:3 ()
              in
              let history, initial_value, lost, abandoned = run w in
              let what = Printf.sprintf "%s seed %d" name seed in
              Alcotest.(check bool) (what ^ ": links lost messages") true
                (lost > 0);
              Alcotest.(check bool) (what ^ ": every op completed") true
                (History.all_complete history);
              Alcotest.(check int) (what ^ ": sends abandoned") 0 abandoned;
              Alcotest.(check bool) (what ^ ": atomic") true
                (Atomicity.check_tagged ~initial_value (History.records history)
                = Ok ())
            done)
          protocols)
  ]

let () =
  Alcotest.run "baselines"
    [ ("abd", abd_tests); ("cas", cas_tests); ("ldr", ldr_tests);
      (* group names stay at three characters: a longer one widens
         alcotest's name column and re-truncates every printed test name *)
      ("all", lossy_tests)
    ]
