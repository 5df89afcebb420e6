(* End-to-end tests of the SODA algorithm on the simulated network:
   liveness (Thm 5.1), atomicity (Thm 5.2), storage cost (Thm 5.3),
   write cost (Thm 5.4), reader unregistration (Thm 5.5), read cost vs
   delta_w (Thm 5.6), latency bounds (Thm 5.7), and the crash behaviour
   of the message-disperse primitives (Section III). *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity
module Tag = Protocol.Tag
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Standard acceptance for a run: all ops completed (clients non-faulty),
   tag-based atomicity holds, and when the history is small enough the
   exhaustive value-based checker agrees. *)
let accept ?(check_values = true) (r : Runner.result) =
  let records = History.records r.Runner.history in
  History.all_complete r.Runner.history
  && Atomicity.check_tagged ~initial_value:r.Runner.initial_value records
     = Ok ()
  && (not (check_values && List.length records <= 20)
     || Atomicity.linearizable_by_value ~initial_value:r.Runner.initial_value
          records)

let params_gen =
  QCheck2.Gen.(
    int_range 3 15 >>= fun n ->
    int_range 1 (max 1 (Params.fmax ~n)) >|= fun f ->
    Params.make ~n ~f ())

(* ------------------------------------------------------------------ *)
(* Functional basics *)

let basic_tests =
  [ Alcotest.test_case "read with no writes returns the initial value" `Quick
      (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let engine = Engine.create ~seed:3 ~delay:(Delay.constant 1.0) () in
        let initial_value = Bytes.of_string "genesis" in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:1
            ~num_readers:1 ()
        in
        let result = ref None in
        Soda.Deployment.read d ~reader:0 ~at:0.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        (match !result with
        | Some v ->
          Alcotest.(check string) "initial" "genesis" (Bytes.to_string v)
        | None -> Alcotest.fail "read did not complete"));
    Alcotest.test_case "write then read returns the written value" `Quick
      (fun () ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine =
          Engine.create ~seed:5 ~delay:(Delay.uniform ~lo:0.1 ~hi:1.5) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 32 '0') ~num_writers:1 ~num_readers:1
            ()
        in
        let written = Bytes.of_string "the new value, longer than before" in
        let result = ref None in
        Soda.Deployment.write d ~writer:0 ~at:0.0 written;
        Soda.Deployment.read d ~reader:0 ~at:100.0
          ~on_done:(fun v -> result := Some v)
          ();
        Engine.run engine;
        (match !result with
        | Some v ->
          Alcotest.(check bool) "value" true (Bytes.equal v written)
        | None -> Alcotest.fail "read did not complete"));
    Alcotest.test_case "a chain of writes is observed in order" `Quick
      (fun () ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine = Engine.create ~seed:7 ~delay:(Delay.constant 0.5) () in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.of_string "v0") ~num_writers:1
            ~num_readers:1 ()
        in
        let reads = ref [] in
        for i = 1 to 5 do
          let t = float_of_int i *. 50.0 in
          Soda.Deployment.write d ~writer:0 ~at:t
            (Bytes.of_string (Printf.sprintf "v%d" i));
          Soda.Deployment.read d ~reader:0 ~at:(t +. 25.0)
            ~on_done:(fun v -> reads := Bytes.to_string v :: !reads)
            ()
        done;
        Engine.run engine;
        Alcotest.(check (list string)) "order"
          [ "v1"; "v2"; "v3"; "v4"; "v5" ]
          (List.rev !reads));
    Alcotest.test_case "two writers interleave without losing atomicity"
      `Quick (fun () ->
        let params = Params.make ~n:8 ~f:3 () in
        let w =
          Workload.concurrent ~params ~value_len:128 ~num_writers:2
            ~num_readers:2 ~ops_per_client:3 ~seed:11 ()
        in
        let r = Runner.run Runner.Soda w in
        Alcotest.(check bool) "accepted" true (accept r));
    Alcotest.test_case "well-formedness violation raises" `Quick (fun () ->
        let params = Params.make ~n:5 ~f:1 () in
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 5.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~num_writers:1 ~num_readers:1
            ()
        in
        (* second write scheduled while the first is still in flight *)
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.of_string "a");
        Soda.Deployment.write d ~writer:0 ~at:1.0 (Bytes.of_string "b");
        Alcotest.check_raises "raises"
          (Invalid_argument
             "Writer.invoke: operation already in flight (well-formedness)")
          (fun () -> Engine.run engine))
  ]

(* ------------------------------------------------------------------ *)
(* Liveness and atomicity under randomized schedules and crashes *)

let random_execution_tests =
  [ qtest ~count:60 "liveness + atomicity on random concurrent workloads"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 100_000 >>= fun seed ->
        int_range 1 3 >>= fun nw ->
        int_range 1 3 >>= fun nr ->
        int_range 1 3 >|= fun ops -> (params, seed, nw, nr, ops))
      (fun (params, seed, nw, nr, ops) ->
        let w =
          Workload.concurrent ~params ~value_len:96 ~seed ~num_writers:nw
            ~num_readers:nr ~ops_per_client:ops
            ~delay:(Delay.exponential ~mean:1.0 ~cap:8.0) ()
        in
        accept (Runner.run Runner.Soda w));
    qtest ~count:40 "liveness + atomicity with f crashed servers"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 100_000 >>= fun seed ->
        (* choose f coordinates and crash times *)
        let n = Params.n params and f = Params.f params in
        shuffle_a (Array.init n (fun i -> i)) >>= fun perm ->
        list_size (return f) (float_range 0.0 500.0) >|= fun times ->
        (params, seed, List.mapi (fun i t -> (perm.(i), t)) times))
      (fun (params, seed, crashes) ->
        let w =
          Workload.concurrent ~params ~value_len:96 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2
            ~delay:(Delay.uniform ~lo:0.2 ~hi:3.0) ()
        in
        let w = Workload.with_crashes w crashes in
        accept (Runner.run Runner.Soda w));
    qtest ~count:30 "determinism: same workload, same outcome"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:2 () in
        let w =
          Workload.concurrent ~params ~value_len:64 ~seed ~num_writers:2
            ~num_readers:2 ~ops_per_client:2 ()
        in
        let fingerprint r =
          List.map
            (fun o ->
              ( o.History.op,
                o.History.kind,
                o.History.invoked_at,
                o.History.responded_at,
                o.History.tag ))
            (History.records r.Runner.history)
        in
        fingerprint (Runner.run Runner.Soda w)
        = fingerprint (Runner.run Runner.Soda w))
  ]

(* ------------------------------------------------------------------ *)
(* Cost theorems *)

let cost_tests =
  [ qtest ~count:30 "Thm 5.3: total storage is exactly n/(n-f) fragments"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 10_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        let w =
          Workload.concurrent ~params ~value_len:512 ~seed ~num_writers:2
            ~num_readers:1 ~ops_per_client:2 ()
        in
        let r = Runner.run Runner.Soda w in
        (* every server stores exactly one coded element at all times *)
        let n = Params.n params and k = Params.k_soda params in
        let frag =
          Erasure.Splitter.fragment_size ~k ~value_len:512
        in
        let expected = float_of_int (n * frag) /. 512.0 in
        abs_float (Cost.max_total_storage r.Runner.cost -. expected) < 1e-9);
    qtest ~count:30 "Thm 5.4: write communication cost is below 5 f^2"
      QCheck2.Gen.(
        int_range 1 12 >>= fun f ->
        int_range (2 * f + 1) 25 >>= fun n ->
        int_range 0 10_000 >|= fun seed -> (n, f, seed))
      (fun (n, f, seed) ->
        let params = Params.make ~n ~f () in
        let w = Workload.sequential ~params ~value_len:2048 ~seed ~rounds:2 () in
        let r = Runner.run Runner.Soda w in
        let bound = 5.0 *. float_of_int (f * f) in
        History.records r.Runner.history
        |> List.filter (fun o -> o.History.kind = History.Write)
        |> List.for_all (fun o ->
               Cost.comm_of_op r.Runner.cost ~op:o.History.op
               <= Float.max bound 2.5
               (* for f = 1 the bound 5f^2 = 5 dominates anyway; the
                  max is defensive for tiny systems *)));
    qtest ~count:30
      "quiescent read costs between k and n coded elements (delta_w = 0)"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        int_range 0 10_000 >|= fun seed -> (params, seed))
      (fun (params, seed) ->
        (* the formula n/(n-f) is the worst case: a server whose
           READ-COMPLETE overtakes its READ-VALUE (tombstone path) never
           relays, so a quiescent read costs between k and n elements *)
        let w = Workload.sequential ~params ~value_len:512 ~seed ~rounds:2 () in
        let r = Runner.run Runner.Soda w in
        let n = Params.n params and k = Params.k_soda params in
        let frag = Erasure.Splitter.fragment_size ~k ~value_len:512 in
        let unit = float_of_int frag /. 512.0 in
        History.records r.Runner.history
        |> List.filter (fun o -> o.History.kind = History.Read)
        |> List.for_all (fun o ->
               let c = Cost.comm_of_op r.Runner.cost ~op:o.History.op in
               c >= (float_of_int k *. unit) -. 1e-9
               && c <= (float_of_int n *. unit) +. 1e-9));
    qtest ~count:40
      "Thm 5.6: read cost within n/(n-f) * (concurrent writes + 1)"
      QCheck2.Gen.(
        int_range 0 10_000 >>= fun seed ->
        int_range 1 4 >>= fun writers ->
        int_range 1 3 >|= fun wpw -> (seed, writers, wpw))
      (fun (seed, writers, wpw) ->
        (* the sound variant of delta_w: writes able to deliver a coded
           element inside the registration window; the paper's literal
           delta_w (initiations inside [T1,T2]) misses writes that start
           just before T1, see Metrics.concurrent_writes *)
        let params = Params.make ~n:9 ~f:3 () in
        let w =
          Workload.read_with_write_storm ~params ~value_len:512 ~seed ~writers
            ~writes_per_writer:wpw ()
        in
        let r = Runner.run Runner.Soda w in
        let n = Params.n params and k = Params.k_soda params in
        let frag = Erasure.Splitter.fragment_size ~k ~value_len:512 in
        let unit_cost = float_of_int (n * frag) /. 512.0 in
        (* the storm workload uses exponential delays capped at 12 *)
        let slack = 24.0 in
        Metrics.reads_with_delta_w r
        |> List.for_all (fun (rid, _, cost) ->
               match Metrics.concurrent_writes r ~rid ~slack with
               | None -> false
               | Some cw -> cost <= (unit_cost *. float_of_int (cw + 1)) +. 1e-9));
    qtest ~count:40 "relays to one reader are unique per (server, tag)"
      QCheck2.Gen.(
        int_range 0 10_000 >>= fun seed ->
        int_range 1 4 >|= fun writers -> (seed, writers))
      (fun (seed, writers) ->
        let params = Params.make ~n:9 ~f:3 () in
        let w =
          Workload.read_with_write_storm ~params ~value_len:512 ~seed ~writers
            ~writes_per_writer:2 ()
        in
        let r = Runner.run Runner.Soda w in
        let probe = Option.get r.Runner.probe in
        let seen = Hashtbl.create 64 in
        List.for_all
          (function
            | Probe.Relayed { rid; server; tag; _ } ->
              if Hashtbl.mem seen (rid, server, tag) then false
              else begin
                Hashtbl.add seen (rid, server, tag) ();
                true
              end
            | Probe.Registered _ | Probe.Unregistered _ | Probe.Stored _
            | Probe.Gc _ | Probe.Repair_started _ | Probe.Repaired _
            | Probe.Crash_injected _ | Probe.Rot_injected _
            | Probe.Suspected _ | Probe.Auto_repair _ | Probe.Rot_detected _
            | Probe.Scrub_repaired _ ->
              true)
          (Probe.events probe));
    Alcotest.test_case "read cost grows with write concurrency" `Quick
      (fun () ->
        (* across seeds, reads that overlapped more writes cost more *)
        let params = Params.make ~n:9 ~f:3 () in
        let samples =
          List.concat_map
            (fun seed ->
              let w =
                Workload.read_with_write_storm ~params ~value_len:512 ~seed
                  ~writers:4 ~writes_per_writer:3 ()
              in
              let r = Runner.run Runner.Soda w in
              List.filter_map
                (fun (rid, _, cost) ->
                  Option.map
                    (fun cw -> (cw, cost))
                    (Metrics.concurrent_writes r ~rid ~slack:24.0))
                (Metrics.reads_with_delta_w r))
            (List.init 25 (fun i -> i))
        in
        let low =
          List.filter_map
            (fun (cw, c) -> if cw <= 1 then Some c else None)
            samples
        in
        let high =
          List.filter_map
            (fun (cw, c) -> if cw >= 3 then Some c else None)
            samples
        in
        Alcotest.(check bool) "has contended samples" true (high <> []);
        let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
        if low <> [] then
          Alcotest.(check bool) "contended reads cost more" true
            (mean high > mean low))
  ]

(* ------------------------------------------------------------------ *)
(* Latency (Thm 5.7) *)

let latency_tests =
  [ qtest ~count:30 "write <= 5 delta, read <= 6 delta under bounded delay"
      QCheck2.Gen.(
        params_gen >>= fun params ->
        float_range 0.5 3.0 >>= fun delta ->
        int_range 0 10_000 >|= fun seed -> (params, delta, seed))
      (fun (params, delta, seed) ->
        let w =
          Workload.sequential ~params ~value_len:256 ~seed
            ~delay:(Delay.constant delta) ~rounds:3 ()
        in
        let r = Runner.run Runner.Soda w in
        let slack = 0.1 (* disperse_step spacing *) in
        History.records r.Runner.history
        |> List.for_all (fun o ->
               match o.History.responded_at with
               | None -> false
               | Some finish ->
                 let latency = finish -. o.History.invoked_at in
                 (match o.History.kind with
                 | History.Write -> latency <= (5.0 *. delta) +. slack
                 | History.Read -> latency <= (6.0 *. delta) +. slack)));
    qtest ~count:20 "latency bounds also hold with random delays below delta"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let params = Params.make ~n:9 ~f:4 () in
        let delta = 2.0 in
        let w =
          Workload.sequential ~params ~value_len:256 ~seed
            ~delay:(Delay.uniform ~lo:0.1 ~hi:delta) ~rounds:3 ()
        in
        let r = Runner.run Runner.Soda w in
        History.records r.Runner.history
        |> List.for_all (fun o ->
               match o.History.responded_at with
               | None -> false
               | Some finish ->
                 finish -. o.History.invoked_at <= (6.0 *. delta) +. 0.1))
  ]

(* ------------------------------------------------------------------ *)
(* Crash scenarios for the message-disperse primitives and readers *)

let crash_tests =
  [ qtest ~count:60 "MD-VALUE uniformity under writer crash mid-dispersal"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 8.0 >|= fun crash_at -> (seed, crash_at))
      (fun (seed, crash_at) ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 64 'i') ~disperse_step:0.5
            ~num_writers:1 ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'A');
        Soda.Deployment.crash_writer d ~writer:0 ~at:crash_at;
        Engine.run engine;
        (* uniformity: either no server adopted the write's tag, or every
           server did (f = 3 but no server crashes here) *)
        let adopted =
          List.init (Params.n params) (fun c ->
              Tag.( > )
                (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:c))
                Tag.initial)
        in
        List.for_all Fun.id adopted || List.for_all not adopted);
    qtest ~count:60
      "MD-VALUE uniformity under writer + f server crashes mid-dispersal"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 2.0 6.0 >>= fun crash_at ->
        int_range 0 6 >>= fun c1 ->
        int_range 0 6 >>= fun c2 ->
        float_range 0.0 10.0 >>= fun t1 ->
        float_range 0.0 10.0 >|= fun t2 -> (seed, crash_at, (c1, t1), (c2, t2)))
      (fun (seed, crash_at, (c1, t1), (c2, t2)) ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 64 'i') ~disperse_step:0.5
            ~num_writers:1 ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'A');
        Soda.Deployment.crash_writer d ~writer:0 ~at:crash_at;
        Soda.Deployment.crash_server d ~coordinate:c1 ~at:t1;
        if c2 <> c1 then Soda.Deployment.crash_server d ~coordinate:c2 ~at:t2;
        Engine.run engine;
        let alive c =
          not (Engine.is_crashed engine (Soda.Deployment.server_pid d ~coordinate:c))
        in
        let adopted c =
          Tag.( > )
            (Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:c))
            Tag.initial
        in
        let alive_coords =
          List.filter alive (List.init (Params.n params) Fun.id)
        in
        List.for_all adopted alive_coords
        || List.for_all (fun c -> not (adopted c)) alive_coords);
    qtest ~count:60 "Thm 5.5: crashed readers are eventually unregistered"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 100.0 115.0 >|= fun crash_at -> (seed, crash_at))
      (fun (seed, crash_at) ->
        let params = Params.make ~n:7 ~f:2 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 64 'i') ~num_writers:1 ~num_readers:1
            ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'A');
        (* the read starts at 100; the reader crashes during it *)
        Soda.Deployment.read d ~reader:0 ~at:100.0 ();
        Soda.Deployment.crash_reader d ~reader:0 ~at:crash_at;
        (* concurrent writes keep arriving afterwards *)
        Soda.Deployment.write d ~writer:0 ~at:130.0 (Bytes.make 64 'B');
        Soda.Deployment.write d ~writer:0 ~at:160.0 (Bytes.make 64 'C');
        Engine.run engine;
        (* every server must have dropped the registration by quiescence *)
        List.for_all
          (fun c ->
            Soda.Server.registered_reads (Soda.Deployment.server d ~coordinate:c)
            = [])
          (List.init (Params.n params) Fun.id)
        && Probe.registrations_balanced (Soda.Deployment.probe d)
             ~crashed:(fun _ -> false));
    Alcotest.test_case "operations complete with exactly f crashes from t=0"
      `Quick (fun () ->
        let params = Params.make ~n:9 ~f:4 () in
        let w =
          Workload.concurrent ~params ~value_len:128 ~seed:3 ~num_writers:2
            ~num_readers:2 ~ops_per_client:2 ()
        in
        let w =
          Workload.with_crashes w [ (0, 0.0); (2, 0.0); (5, 0.0); (8, 0.0) ]
        in
        let r = Runner.run Runner.Soda w in
        Alcotest.(check bool) "accepted" true (accept r))
  ]

(* ------------------------------------------------------------------ *)
(* Server state hygiene *)

let hygiene_tests =
  [ Alcotest.test_case "no registrations survive a quiescent run" `Quick
      (fun () ->
        let params = Params.make ~n:8 ~f:3 () in
        let engine =
          Engine.create ~seed:17 ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 32 'i') ~num_writers:2 ~num_readers:2
            ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Soda.Deployment.write d ~writer:(i mod 2) ~at:t (Bytes.make 32 'x');
          Soda.Deployment.read d ~reader:(i mod 2) ~at:(t +. 20.0) ()
        done;
        Engine.run engine;
        List.iter
          (fun c ->
            Alcotest.(check (list int))
              (Printf.sprintf "server %d registered set" c)
              []
              (Soda.Server.registered_reads
                 (Soda.Deployment.server d ~coordinate:c)))
          (List.init (Params.n params) Fun.id));
    Alcotest.test_case "servers converge to the latest tag" `Quick (fun () ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine =
          Engine.create ~seed:23 ~delay:(Delay.uniform ~lo:0.2 ~hi:1.5) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 32 'i') ~num_writers:1 ~num_readers:1
            ()
        in
        for i = 1 to 4 do
          Soda.Deployment.write d ~writer:0 ~at:(float_of_int i *. 50.0)
            (Bytes.make 32 (Char.chr (Char.code 'a' + i)))
        done;
        Engine.run engine;
        let tags =
          List.init (Params.n params) (fun c ->
              Soda.Server.stored_tag (Soda.Deployment.server d ~coordinate:c))
        in
        match tags with
        | [] -> Alcotest.fail "no servers"
        | t0 :: rest ->
          List.iter
            (fun t ->
              Alcotest.(check bool) "same tag" true (Tag.equal t t0))
            rest;
          Alcotest.(check int) "z = number of writes" 4 t0.Tag.z);
    Alcotest.test_case "a bad client index raises and schedules nothing"
      `Quick (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let engine = Engine.create ~seed:29 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~num_writers:2 ~num_readers:3
            ()
        in
        Soda.Deployment.write d ~writer:1 ~at:5.0 (Bytes.make 8 'w');
        let pending = Engine.pending_events engine in
        let raises ~client ~bad where f =
          List.iter
            (fun i ->
              Alcotest.check_raises
                (Printf.sprintf "%s %d" where i)
                (Invalid_argument
                   (Printf.sprintf "Deployment.%s: %s out of range" where
                      client))
                (fun () -> f i))
            [ -1; bad ]
        in
        let writer = raises ~client:"writer" ~bad:2
        and reader = raises ~client:"reader" ~bad:3 in
        writer "write" (fun writer ->
            Soda.Deployment.write d ~writer ~at:10.0 (Bytes.make 8 'x'));
        reader "read" (fun reader ->
            Soda.Deployment.read d ~reader ~at:10.0 ());
        writer "crash_writer" (fun writer ->
            Soda.Deployment.crash_writer d ~writer ~at:10.0);
        reader "crash_reader" (fun reader ->
            Soda.Deployment.crash_reader d ~reader ~at:10.0);
        Alcotest.(check int) "nothing scheduled" pending
          (Engine.pending_events engine))
  ]

let ablation_tests =
  [ qtest ~count:40 "direct dispersal is atomic and live without crashes"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let initial_value = Workload.value ~len:96 ~seed ~index:999 in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value
            ~md_mode:`Direct ~num_writers:2 ~num_readers:2 ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Soda.Deployment.write d ~writer:(i mod 2) ~at:t
            (Workload.value ~len:96 ~seed ~index:i);
          Soda.Deployment.read d ~reader:(i mod 2) ~at:(t +. 25.0) ()
        done;
        Engine.run engine;
        History.all_complete (Soda.Deployment.history d)
        && Atomicity.check_tagged ~initial_value
             (History.records (Soda.Deployment.history d))
           = Ok ());
    Alcotest.test_case
      "direct dispersal loses read liveness under writer + f crashes        (why MD-VALUE exists)"
      `Quick (fun () ->
        (* deterministic counterpart of the ablation-md benchmark: run
           both modes on identical fault schedules; chained must always
           serve the read, direct must fail for at least one seed *)
        let run md_mode seed =
          let params = Params.make ~n:7 ~f:3 () in
          let engine =
            Engine.create ~seed ~delay:(Delay.uniform ~lo:0.5 ~hi:2.0) ()
          in
          let d =
            Soda.Deployment.deploy ~engine ~params
              ~initial_value:(Bytes.make 64 'i') ~md_mode ~disperse_step:0.5
              ~num_writers:1 ~num_readers:1 ()
          in
          Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'A');
          Soda.Deployment.crash_writer d ~writer:0 ~at:3.0;
          Soda.Deployment.crash_server d ~coordinate:(seed mod 7) ~at:10.0;
          Soda.Deployment.crash_server d ~coordinate:((seed + 2) mod 7) ~at:10.0;
          Soda.Deployment.crash_server d ~coordinate:((seed + 4) mod 7) ~at:10.0;
          let completed = ref false in
          Soda.Deployment.read d ~reader:0 ~at:50.0
            ~on_done:(fun _ -> completed := true)
            ();
          Engine.run engine;
          !completed
        in
        let seeds = List.init 40 (fun i -> i) in
        Alcotest.(check bool) "chained always serves the read" true
          (List.for_all (fun seed -> run `Chained seed) seeds);
        Alcotest.(check bool) "direct fails for some schedule" true
          (List.exists (fun seed -> not (run `Direct seed)) seeds));
    qtest ~count:30
      "without gossip, completed reads are still cleaned up via        READ-COMPLETE"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 64 'i')
            ~plane:Soda.Config.gossip_off_plane
            ~num_writers:1 ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 64 'a');
        Soda.Deployment.read d ~reader:0 ~at:50.0 ();
        Engine.run engine;
        History.all_complete (Soda.Deployment.history d)
        && List.for_all
             (fun c ->
               Soda.Server.registered_reads
                 (Soda.Deployment.server d ~coordinate:c)
               = [])
             (List.init 6 Fun.id))
  ]

let cross_validation_tests =
  [ qtest ~count:25
      "exhaustive value-based linearizability agrees on fully concurrent        histories"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        (* 7 writers and 7 readers all firing at once: 14 mutually
           concurrent operations, checked with the Wing-Gong search (no
           tags involved) as well as the Lemma 2.1 checker *)
        let params = Params.make ~n:7 ~f:2 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.exponential ~mean:1.0 ~cap:8.0) ()
        in
        let initial_value = Workload.value ~len:48 ~seed ~index:999 in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:7
            ~num_readers:7 ()
        in
        for i = 0 to 6 do
          Soda.Deployment.write d ~writer:i
            ~at:(float_of_int i *. 0.3)
            (Workload.value ~len:48 ~seed ~index:i);
          Soda.Deployment.read d ~reader:i ~at:(float_of_int i *. 0.4) ()
        done;
        Engine.run engine;
        let records = History.records (Soda.Deployment.history d) in
        History.all_complete (Soda.Deployment.history d)
        && Atomicity.check_tagged ~initial_value records = Ok ()
        && Atomicity.linearizable_by_value ~initial_value records)
  ]

let () =
  Alcotest.run "soda"
    [ ("basics", basic_tests);
      ("ablations", ablation_tests);
      ("cross-validation", cross_validation_tests);
      ("random-executions", random_execution_tests);
      ("costs", cost_tests);
      ("latency", latency_tests);
      ("crashes", crash_tests);
      ("hygiene", hygiene_tests)
    ]
