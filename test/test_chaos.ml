(* Chaos tests: randomized crash/repair schedules (Nemesis) under the
   f-at-a-time budget, with live client traffic throughout. SODA plus
   the repair extension must deliver liveness and atomicity through all
   of it.

   The crash-storm runs mount the reliable-channel transport: with
   crash-REPAIR cycles (as opposed to the paper's permanent crashes) a
   raw channel loses every message sent into a crash window forever, so
   an operation straddling two windows can be left short of its quorum
   with no retransmission to save it — liveness under repair genuinely
   requires the ack/retransmit substrate (or synchronous detectors the
   model doesn't have). The fault budget still holds at every instant;
   the channel only rides messages across the windows. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Atomicity = Protocol.Atomicity
module Workload = Harness.Workload
module Nemesis = Harness.Nemesis
module Chaos = Harness.Chaos

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let nemesis_unit_tests =
  [ qtest ~count:200 "schedules never exceed the crash budget"
      QCheck2.Gen.(
        int_range 3 15 >>= fun n ->
        int_range 1 (Params.fmax ~n) >>= fun f ->
        int_range 0 100_000 >|= fun seed -> (n, f, seed))
      (fun (n, f, seed) ->
        let params = Params.make ~n ~f () in
        let schedule = Nemesis.generate ~params ~seed ~horizon:2000.0 in
        Nemesis.max_simultaneous_down schedule <= f);
    qtest ~count:100 "every crash is followed by its repair"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:9 ~f:3 () in
        let schedule = Nemesis.generate ~params ~seed ~horizon:2000.0 in
        (* scanning forward, a coordinate can only crash when up and
           repair when down *)
        let down = Hashtbl.create 8 in
        List.for_all
          (fun e ->
            match e with
            | Nemesis.Crash { coordinate; _ } ->
              if Hashtbl.mem down coordinate then false
              else begin
                Hashtbl.add down coordinate ();
                true
              end
            | Nemesis.Repair { coordinate; _ } ->
              if Hashtbl.mem down coordinate then begin
                Hashtbl.remove down coordinate;
                true
              end
              else false
            | Nemesis.Partition _ | Nemesis.Heal _ | Nemesis.BitRot _ ->
              (* [generate] never emits partitions or rot *)
              false)
          schedule);
    Alcotest.test_case "schedules are non-trivial" `Quick (fun () ->
        let params = Params.make ~n:9 ~f:3 () in
        let schedule = Nemesis.generate ~params ~seed:5 ~horizon:3000.0 in
        Alcotest.(check bool)
          (Printf.sprintf "%d crashes" (Nemesis.crash_count schedule))
          true
          (Nemesis.crash_count schedule >= 3));
    qtest ~count:200
      "mixed schedules never exceed the budget (crashed + isolated)"
      QCheck2.Gen.(
        int_range 3 15 >>= fun n ->
        int_range 1 (Params.fmax ~n) >>= fun f ->
        float_range 0.0 1.0 >>= fun fraction ->
        int_range 0 100_000 >|= fun seed -> (n, f, fraction, seed))
      (fun (n, f, fraction, seed) ->
        let params = Params.make ~n ~f () in
        let schedule =
          Nemesis.generate_mixed ~params ~seed ~horizon:2000.0
            ~partition_fraction:fraction ()
        in
        Nemesis.max_simultaneous_down schedule <= f);
    qtest ~count:100 "mixed schedules pair partitions with heals"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:9 ~f:3 () in
        let schedule =
          Nemesis.generate_mixed ~params ~seed ~horizon:2000.0 ()
        in
        (* per coordinate: Partition only when not isolated, Heal only
           when isolated, Crash/Repair as before *)
        let down = Hashtbl.create 8 in
        let isolated = Hashtbl.create 8 in
        let flip table cs ~expect =
          List.for_all
            (fun c ->
              if Hashtbl.mem table c = expect then begin
                if expect then Hashtbl.remove table c
                else Hashtbl.add table c ();
                true
              end
              else false)
            cs
        in
        List.for_all
          (fun e ->
            match e with
            | Nemesis.Crash { coordinate; _ } ->
              flip down [ coordinate ] ~expect:false
            | Nemesis.Repair { coordinate; _ } ->
              flip down [ coordinate ] ~expect:true
            | Nemesis.Partition { coordinates; _ } ->
              flip isolated coordinates ~expect:false
            | Nemesis.Heal { coordinates; _ } ->
              flip isolated coordinates ~expect:true
            | Nemesis.BitRot _ ->
              (* [generate_mixed] never emits rot *)
              false)
          schedule);
    Alcotest.test_case "mixed schedules mix both fault kinds" `Quick
      (fun () ->
        let params = Params.make ~n:9 ~f:3 () in
        let found = ref (false, false) in
        (* the coin is per-window, so scan a few seeds *)
        List.iter
          (fun seed ->
            let s = Nemesis.generate_mixed ~params ~seed ~horizon:3000.0 () in
            let c, p = !found in
            found :=
              (c || Nemesis.crash_count s > 0, p || Nemesis.partition_count s > 0))
          [ 1; 2; 3 ];
        Alcotest.(check (pair bool bool)) "crashes and partitions" (true, true)
          !found)
  ]

let run_chaos ~seed =
  let params = Params.make ~n:7 ~f:2 () in
  let initial_value = Workload.value ~len:128 ~seed ~index:999 in
  let engine =
    Engine.create ~seed ~transport:(`Reliable Simnet.Channel.default)
      ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  let d =
    Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:2
      ~num_readers:2 ()
  in
  let horizon = 2400.0 in
  let schedule = Nemesis.generate ~params ~seed ~horizon in
  (* gated: a crash waits for in-flight repairs, keeping the effective
     fault count (crashed + still-rebuilding) within the f budget *)
  Nemesis.apply_gated schedule d;
  (* steady client traffic across the whole horizon, closed-loop: a
     client issues its next operation only after the previous one
     completed, since chaos can stall a single operation arbitrarily
     (e.g. while several servers are simultaneously mid-repair) *)
  let value_index = ref 0 in
  let rec write_loop w () =
    if Engine.now engine < horizon then begin
      let index = !value_index in
      incr value_index;
      Soda.Deployment.write d ~writer:w
        ~at:(Engine.now engine +. 45.0)
        ~on_done:(write_loop w)
        (Workload.value ~len:128 ~seed ~index)
    end
  in
  let rec read_loop r () =
    if Engine.now engine < horizon then
      Soda.Deployment.read d ~reader:r
        ~at:(Engine.now engine +. 45.0)
        ~on_done:(fun _ -> read_loop r ())
        ()
  in
  write_loop 0 ();
  write_loop 1 ();
  read_loop 0 ();
  read_loop 1 ();
  Engine.run engine;
  (d, initial_value, schedule)

let chaos_tests =
  [ qtest ~count:25 "liveness + atomicity through random crash/repair storms"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let d, initial_value, _ = run_chaos ~seed in
        History.all_complete (Soda.Deployment.history d)
        && Atomicity.check_tagged ~initial_value
             (History.records (Soda.Deployment.history d))
           = Ok ());
    Alcotest.test_case "a chaotic run exercises real faults" `Quick (fun () ->
        let _, _, schedule = run_chaos ~seed:11 in
        Alcotest.(check bool)
          (Printf.sprintf "crashes=%d" (Nemesis.crash_count schedule))
          true
          (Nemesis.crash_count schedule >= 2))
  ]

let store_chaos_tests =
  [ qtest ~count:15 "multi-object store survives machine-level chaos"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine =
          Engine.create ~seed ~transport:(`Reliable Simnet.Channel.default)
            ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let objects = [ "a"; "b" ] in
        let store =
          Soda.Store.create ~engine ~params ~objects ~num_writers:2
            ~num_readers:2 ()
        in
        (* machine-level nemesis: crash/repair cycles hit every object's
           processes on that machine together, gated on the machine's
           repairs across all objects *)
        let schedule =
          Nemesis.generate ~params ~seed:(seed + 1) ~horizon:1200.0
        in
        Nemesis.drive_gated ~engine
          ~repairing:(fun () -> Soda.Store.repairing store)
          ~apply:(fun ~at -> function
            | Nemesis.Crash { coordinate; _ } ->
              Soda.Store.crash_server store ~coordinate ~at
            | Nemesis.Repair { coordinate; _ } ->
              Soda.Store.repair_server store ~coordinate ~at
            (* Nemesis.generate schedules crashes and repairs only *)
            | Nemesis.Partition _ | Nemesis.Heal _ | Nemesis.BitRot _ -> ())
          schedule;
        (* under chaos an operation can stall until a repair completes,
           so clients chain their next operation from the completion
           callback instead of fixed timestamps (closed loop) *)
        List.iteri
          (fun i obj ->
            let rec write_loop w j () =
              if j < 3 then
                Soda.Store.write store ~obj ~writer:w
                  ~at:(Engine.now engine +. 30.0)
                  ~on_done:(write_loop w (j + 1))
                  (Workload.value ~len:64 ~seed ~index:((100 * i) + (10 * w) + j))
            in
            let rec read_loop r j () =
              if j < 3 then
                Soda.Store.read store ~obj ~reader:r
                  ~at:(Engine.now engine +. 40.0)
                  ~on_done:(fun _ -> read_loop r (j + 1) ())
                  ()
            in
            write_loop 0 0 ();
            write_loop 1 0 ();
            read_loop 0 0 ();
            read_loop 1 0 ())
          objects;
        Engine.run engine;
        Soda.Store.all_complete store
        && Soda.Store.check_atomicity store = Ok ())
  ]

(* ------------------------------------------------------------------ *)
(* the chaos matrix: SODA over the reliable transport while the fault
   plane loses messages and the nemesis injects partitions + crashes *)

let outcome_fail_msg (o : Chaos.outcome) =
  Format.asprintf "%a" Chaos.pp_outcome o

let matrix_tests =
  List.map
    (fun scenario ->
      qtest ~count:30
        (Printf.sprintf "matrix cell %s is live and atomic" scenario.Chaos.name)
        QCheck2.Gen.(int_range 0 10_000)
        (fun seed ->
          let o = Chaos.run ~trace:true scenario ~seed in
          Chaos.ok o || QCheck2.Test.fail_report (outcome_fail_msg o)))
    Chaos.matrix

(* A server sends a read each (tag, element) pair once while the read's
   H row lives there: no two [Relayed] probes with the same (rid, server,
   tag) unless an [Unregistered] of that read at that server, or a
   [Repair_started] of that server (the wipe of its H), comes between
   them. Returns the number of repeats in one run's probe stream. *)
let relay_repeats probe =
  let sent = Hashtbl.create 64 in
  List.fold_left
    (fun repeats event ->
      match event with
      | Protocol.Probe.Relayed { rid; server; tag; _ } ->
        let tags =
          Option.value ~default:[] (Hashtbl.find_opt sent (rid, server))
        in
        if List.exists (Protocol.Tag.equal tag) tags then repeats + 1
        else begin
          Hashtbl.replace sent (rid, server) (tag :: tags);
          repeats
        end
      | Protocol.Probe.Unregistered { rid; server; _ } ->
        Hashtbl.remove sent (rid, server);
        repeats
      | Protocol.Probe.Repair_started { server; _ } ->
        Hashtbl.filter_map_inplace
          (fun (_, s) tags -> if s = server then None else Some tags)
          sent;
        repeats
      | _ -> repeats)
    0
    (Protocol.Probe.events probe)

(* A READ-VALUE retry for a read still registered at a server leaves
   the registration alone: no two [Registered] probes with the same
   (rid, server) unless an [Unregistered] of that read at that server,
   or a [Repair_started] of that server (the wipe of its registrations),
   comes between them. Returns the number of repeats in one run's probe
   stream. *)
let registration_repeats probe =
  let live = Hashtbl.create 64 in
  List.fold_left
    (fun repeats event ->
      match event with
      | Protocol.Probe.Registered { rid; server; _ } ->
        if Hashtbl.mem live (rid, server) then repeats + 1
        else begin
          Hashtbl.replace live (rid, server) ();
          repeats
        end
      | Protocol.Probe.Unregistered { rid; server; _ } ->
        Hashtbl.remove live (rid, server);
        repeats
      | Protocol.Probe.Repair_started { server; _ } ->
        Hashtbl.filter_map_inplace
          (fun (_, s) () -> if s = server then None else Some ())
          live;
        repeats
      | _ -> repeats)
    0
    (Protocol.Probe.events probe)

(* Every matrix cell at seeds 1-3 whose probe stream [count]s a
   repeat, as "cell seed N: repeats". *)
let matrix_repeats count =
  List.concat_map
    (fun scenario ->
      List.filter_map
        (fun seed ->
          let o = Chaos.run scenario ~seed in
          match count o.Chaos.probe with
          | 0 -> None
          | r -> Some (Printf.sprintf "%s seed %d: %d" scenario.Chaos.name seed r))
        [ 1; 2; 3 ])
    Chaos.matrix

let relay_once_tests =
  [ Alcotest.test_case "a server relays a (read, tag) pair once" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "repeated relays" [] (matrix_repeats relay_repeats))
  ]

let register_once_tests =
  [ Alcotest.test_case "a server registers a live read once" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "repeated registrations" [] (matrix_repeats registration_repeats))
  ]

(* ------------------------------------------------------------------ *)
(* failure-domain cells: a sharded keyspace over 12 servers in 3
   domains (4+2 preset, consistent hashing, domain-safe) while the
   nemesis takes out a whole domain — by partition or by crash — under
   5% message loss. Every key must stay live and atomic because no key
   places more than f coordinates in any one domain. *)

(* One whole-domain cell: domain 1 fails mid-run ([`Partition]
   blackholes it from t=150 to t=380; [`Crash] crashes it at t=150 and
   repairs every hosted instance at t=380) while closed-loop clients
   cycle over 12 keys. [Error] names what failed. *)
let run_domain ~fault ~seed =
  let keys = 12 and horizon = 600.0 and value_len = 64 in
  (* 12 servers in 3 failure domains, each key a 4+2 instance spread by
     consistent hashing: per-domain cap 2 = f, so losing any whole
     domain stays inside every key's crash budget *)
  let topology = Soda.Topology.make ~servers:12 ~domains:3 () in
  let placement =
    Soda.Placement.create ~topology
      ~params:(Soda.Placement.preset_params `P4_2)
      ~policy:Soda.Placement.Consistent_hash ()
  in
  assert (Soda.Placement.domain_safe placement);
  let engine =
    Engine.create ~seed ~transport:(`Reliable Simnet.Channel.default)
      ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
      ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  Engine.set_loss engine 0.05;
  let ks =
    Soda.Keyspace.create ~engine ~placement ~value_len
      ~plane:Soda.Config.batched_plane ~num_writers:2 ~num_readers:2 ()
  in
  (match fault with
  | `Partition ->
    Soda.Keyspace.partition_domain ks ~domain:1 ~at:150.0;
    Soda.Keyspace.heal_domain ks ~domain:1 ~at:380.0
  | `Crash ->
    Soda.Keyspace.crash_domain ks ~domain:1 ~at:150.0;
    List.iter
      (fun server -> Soda.Keyspace.repair_server ks ~server ~at:380.0)
      (Soda.Topology.domain_members topology 1));
  (* each completion schedules the next operation on the next key, so
     every key sees traffic before, during and after the outage *)
  let value_index = ref 0 in
  let rec write_loop w key () =
    if Engine.now engine < horizon then begin
      let index = !value_index in
      incr value_index;
      Soda.Keyspace.write ks ~key ~writer:w
        ~at:(Engine.now engine +. 30.0)
        ~on_done:(write_loop w ((key + 1) mod keys))
        (Workload.value ~len:value_len ~seed ~index)
    end
  in
  let rec read_loop r key () =
    if Engine.now engine < horizon then
      Soda.Keyspace.read ks ~key ~reader:r
        ~at:(Engine.now engine +. 30.0)
        ~on_done:(fun _ -> read_loop r ((key + 1) mod keys) ())
        ()
  in
  write_loop 0 0 ();
  write_loop 1 (keys / 2) ();
  read_loop 0 0 ();
  read_loop 1 (keys / 2) ();
  Engine.run engine;
  match Soda.Keyspace.check_atomicity ks with
  | Error (key, v) ->
    Error (Format.asprintf "key %d: %a" key Atomicity.pp_violation v)
  | Ok () when not (Soda.Keyspace.all_complete ks) ->
    Error "an operation never completed"
  | Ok () when Engine.sends_abandoned engine > 0 ->
    Error
      (Printf.sprintf "%d sends abandoned" (Engine.sends_abandoned engine))
  | Ok () -> Ok ()

let domain_tests =
  List.map
    (fun (name, fault) ->
      qtest ~count:6
        (Printf.sprintf "domain cell %s is live and atomic per key" name)
        QCheck2.Gen.(int_range 0 10_000)
        (fun seed ->
          match run_domain ~fault ~seed with
          | Ok () -> true
          | Error e ->
            QCheck2.Test.fail_reportf "%s seed=%d: %s" name seed e))
    [ ("domain-part", `Partition); ("domain-crash", `Crash) ]

let determinism_tests =
  [ qtest ~count:5 "identical seeds give bit-identical chaotic executions"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let scenario =
          match Chaos.find "loss20+part+crash" with
          | Some s -> s
          | None -> Alcotest.fail "matrix cell renamed"
        in
        let a = Chaos.run ~trace:true scenario ~seed in
        let b = Chaos.run ~trace:true scenario ~seed in
        a.Chaos.events = b.Chaos.events
        && a.Chaos.sent = b.Chaos.sent
        && a.Chaos.delivered = b.Chaos.delivered
        && a.Chaos.dropped = b.Chaos.dropped
        && a.Chaos.lost = b.Chaos.lost
        && a.Chaos.retransmissions = b.Chaos.retransmissions
        && a.Chaos.duplicates_suppressed = b.Chaos.duplicates_suppressed
        && a.Chaos.ops = b.Chaos.ops
        && a.Chaos.final_time = b.Chaos.final_time);
    (* same property with the self-healing plane armed: heartbeat,
       scrub, suspicion and autonomous repair are all driven by sim
       time and the seeded RNG, so healed runs replay bit-identically
       too (rule D of the determinism discipline) *)
    qtest ~count:3 "healing-enabled executions are bit-identical too"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let scenario =
          match Chaos.find "bitrot+loss20+part" with
          | Some s -> s
          | None -> Alcotest.fail "matrix cell renamed"
        in
        let a = Chaos.run ~trace:true scenario ~seed in
        let b = Chaos.run ~trace:true scenario ~seed in
        a.Chaos.events = b.Chaos.events
        && a.Chaos.sent = b.Chaos.sent
        && a.Chaos.delivered = b.Chaos.delivered
        && a.Chaos.heal_mttd = b.Chaos.heal_mttd
        && a.Chaos.heal_mttr = b.Chaos.heal_mttr
        && a.Chaos.ops = b.Chaos.ops
        && a.Chaos.final_time = b.Chaos.final_time)
  ]

let () =
  Alcotest.run "chaos"
    [ ("nemesis", nemesis_unit_tests);
      ("chaos-runs", chaos_tests);
      ("store-chaos", store_chaos_tests);
      ("chaos-matrix", matrix_tests);
      ("relay-once", relay_once_tests);
      ("register-once", register_once_tests);
      ("domain-matrix", domain_tests);
      ("determinism", determinism_tests)
    ]
