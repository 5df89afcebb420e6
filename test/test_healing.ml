(* Tests for the self-healing plane: the checksummed fragment store
   (Soda.Disk), the heartbeat failure detector with autonomous
   crash-repair, the anti-entropy scrubber's targeted fragment repair,
   and the MTTD/MTTR episode extraction in Harness.Metrics. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module Probe = Protocol.Probe
module Tag = Protocol.Tag
module Fragment = Erasure.Fragment

(* same coordinate, same payload bytes *)
let same_fragment a b =
  Fragment.index a = Fragment.index b
  && Bytes.equal (Fragment.data a) (Fragment.data b)
module Disk = Soda.Disk
module Workload = Harness.Workload
module Metrics = Harness.Metrics

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Disk: checksummed store round-trips *)

let fragment_of ?(index = 2) s = Fragment.make ~index ~data:(Bytes.of_string s)

let disk_tests =
  [ Alcotest.test_case "store/read round-trips and verifies" `Quick (fun () ->
        let f = fragment_of "healthy payload" in
        let d = Disk.create ~tag:Tag.initial ~fragment:f in
        Alcotest.(check bool) "verify" true (Disk.verify d);
        Alcotest.(check bool) "not quarantined" false (Disk.quarantined d);
        match Disk.read d with
        | `Ok g -> Alcotest.(check bool) "same bytes" true (same_fragment f g)
        | `Corrupt -> Alcotest.fail "clean store read as corrupt");
    Alcotest.test_case "rot is detected and the quarantine is sticky" `Quick
      (fun () ->
        let d = Disk.create ~tag:Tag.initial ~fragment:(fragment_of "data") in
        Disk.rot d ~seed:7;
        Alcotest.(check bool) "verify fails" false (Disk.verify d);
        Alcotest.(check bool) "read corrupt" true (Disk.read d = `Corrupt);
        Alcotest.(check bool) "quarantined" true (Disk.quarantined d);
        (* sticky: a second read still refuses *)
        Alcotest.(check bool) "still corrupt" true (Disk.read d = `Corrupt));
    Alcotest.test_case "tags survive rot (metadata is not checksummed)"
      `Quick (fun () ->
        let tag = Tag.next Tag.initial ~w:3 in
        let d = Disk.create ~tag ~fragment:(fragment_of "data") in
        Disk.rot d ~seed:11;
        Alcotest.(check bool) "tag intact" true (Tag.equal tag (Disk.tag d)));
    qtest ~count:100 "corrupt -> detect -> quarantine -> store restores"
      QCheck2.Gen.(
        pair (string_size (int_range 1 200) >|= Bytes.of_string)
          (int_range 0 10_000))
      (fun (data, seed) ->
        let f = Fragment.make ~index:1 ~data in
        let d = Disk.create ~tag:Tag.initial ~fragment:f in
        Disk.rot d ~seed;
        let detected = Disk.read d = `Corrupt && Disk.quarantined d in
        (* the repair path: fresh bytes through store lift quarantine *)
        Disk.store d ~tag:(Tag.next Tag.initial ~w:0) ~fragment:f;
        detected
        && (not (Disk.quarantined d))
        && Disk.verify d
        &&
        match Disk.read d with
        | `Ok g -> same_fragment f g (* byte-identical restoration *)
        | `Corrupt -> false);
    qtest ~count:100 "checksum is a pure function of the payload + index"
      QCheck2.Gen.(
        pair (string_size (int_range 0 200) >|= Bytes.of_string)
          (int_range 0 100))
      (fun (data, index) ->
        let f = Fragment.make ~index ~data in
        Disk.checksum f = Disk.checksum f
        && (Bytes.length data = 0
           || Disk.checksum f <> Disk.checksum (Fragment.corrupt f ~seed:3)))
  ]

(* ------------------------------------------------------------------ *)
(* End to end: the scrubber finds injected rot and restores the exact
   fragment from peers; the failure detector repairs an unannounced
   crash on its own. *)

let deploy_healed ~seed =
  let params = Params.make ~n:5 ~f:1 () in
  let engine = Engine.create ~seed ~delay:(Delay.constant 1.0) () in
  let d =
    Soda.Deployment.deploy ~engine ~params
      ~initial_value:(Bytes.make 64 'i')
      ~healing:true ~num_writers:1 ~num_readers:1 ()
  in
  Probe.record (Soda.Deployment.probe d);
  (engine, d)

let heal_stats d =
  (Soda.Deployment.config d).Soda.Config.heal_stats

let heal_counts d = Metrics.heal_counts (Soda.Deployment.probe d)

let plane_tests =
  [ Alcotest.test_case
      "scrub detects rot and restores the byte-identical fragment" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:21 in
        Soda.Deployment.write d ~writer:0 ~at:5.0
          (Bytes.of_string "survives silent bit-rot");
        (* pause after the write has quiesced, snapshot the victim *)
        Engine.run engine ~until:90.0;
        let victim = Soda.Deployment.server d ~coordinate:2 in
        let before = Soda.Server.stored_fragment victim in
        let tag_before = Soda.Server.stored_tag victim in
        Soda.Deployment.corrupt_server d ~coordinate:2 ~at:100.0;
        Engine.run engine ~until:400.0;
        Alcotest.(check bool) "all disks clean" true
          (Soda.Deployment.scrub_clean d);
        Alcotest.(check bool) "byte-identical restoration" true
          (same_fragment before (Soda.Server.stored_fragment victim));
        Alcotest.(check bool) "tag not regressed" true
          (Tag.equal tag_before (Soda.Server.stored_tag victim));
        let hc = heal_counts d in
        Alcotest.(check bool) "scrub hit counted" true
          (hc.Metrics.scrub_hits >= 1);
        Alcotest.(check bool) "scrub repair counted" true
          (hc.Metrics.scrub_repairs >= 1);
        (* the probe stream tells the whole story *)
        let events = Probe.events (Soda.Deployment.probe d) in
        let has p = List.exists p events in
        Alcotest.(check bool) "rot injected" true
          (has (function Probe.Rot_injected { server = 2; _ } -> true | _ -> false));
        Alcotest.(check bool) "rot detected" true
          (has (function Probe.Rot_detected { server = 2; _ } -> true | _ -> false));
        Alcotest.(check bool) "scrub repaired" true
          (has (function Probe.Scrub_repaired { server = 2; _ } -> true | _ -> false)));
    Alcotest.test_case
      "failure detector repairs an unannounced crash autonomously" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:22 in
        Soda.Deployment.write d ~writer:0 ~at:5.0
          (Bytes.of_string "outlives the crash");
        (* a Crash with no scheduled Repair anywhere *)
        Soda.Deployment.crash_server d ~coordinate:1 ~at:50.0;
        Engine.run engine ~until:600.0;
        Alcotest.(check bool) "all servers live again" true
          (Soda.Deployment.all_live d);
        let hc = heal_counts d in
        Alcotest.(check bool) "suspicion raised" true
          (hc.Metrics.suspicions >= 1);
        Alcotest.(check bool) "exactly one autonomous repair" true
          (hc.Metrics.auto_repairs = 1);
        (* the victim holds the written tag again after the repair *)
        let healthy = Soda.Deployment.server d ~coordinate:0 in
        let victim = Soda.Deployment.server d ~coordinate:1 in
        Alcotest.(check bool) "element recovered" true
          (Tag.equal
             (Soda.Server.stored_tag healthy)
             (Soda.Server.stored_tag victim));
        (* MTTD/MTTR: detection needs at most suspicion_timeout + one
           heartbeat period; the repair itself is fast on a quiet net *)
        let eps = Metrics.heal_episodes (Soda.Deployment.probe d) in
        (match Metrics.heal_mttd eps with
        | [ mttd ] ->
          Alcotest.(check bool)
            (Printf.sprintf "mttd %.1f bounded" mttd)
            true (mttd <= 50.0)
        | _ -> Alcotest.fail "expected exactly one detected episode");
        match Metrics.heal_mttr eps with
        | [ mttr ] ->
          Alcotest.(check bool)
            (Printf.sprintf "mttr %.1f bounded" mttr)
            true (mttr <= 100.0)
        | _ -> Alcotest.fail "expected exactly one healed episode");
    Alcotest.test_case "a crash round and a scrub round run at once" `Quick
      (fun () ->
        let params = Params.make ~n:5 ~f:2 () in
        let initial_value = Bytes.make 64 'i' in
        let engine = Engine.create ~seed:26 ~delay:(Delay.constant 1.0) () in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value
            ~healing:true ~num_writers:1 ~num_readers:1 ()
        in
        Probe.record (Soda.Deployment.probe d);
        Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.of_string "first");
        Soda.Deployment.crash_server d ~coordinate:1 ~at:30.0;
        (* a write server 1 misses: its crash round must decode it *)
        Soda.Deployment.write d ~writer:0 ~at:35.0 (Bytes.of_string "second");
        Soda.Deployment.read d ~reader:0 ~at:58.0 ();
        (* server 2 rots just before server 1's repair: the crash round's
           REPAIR-GET finds the quarantine and starts server 2's scrub
           round while the crash round is still collecting *)
        Soda.Deployment.corrupt_server d ~coordinate:2 ~at:59.5;
        ignore (Soda.Deployment.repair_server d ~coordinate:1 ~at:60.0 : int);
        Engine.run engine ~until:400.0;
        let probe = Soda.Deployment.probe d in
        let time_of p =
          List.find_map p (Probe.events probe)
          |> Option.value ~default:Float.infinity
        in
        let detected =
          time_of (function
            | Probe.Rot_detected { server = 2; time } -> Some time
            | _ -> None)
        and repaired =
          time_of (function
            | Probe.Repaired { server = 1; time; _ } -> Some time
            | _ -> None)
        and scrubbed =
          time_of (function
            | Probe.Scrub_repaired { server = 2; time; _ } -> Some time
            | _ -> None)
        in
        Alcotest.(check bool) "crash round ended" true (repaired < 400.0);
        Alcotest.(check bool) "scrub round ended" true (scrubbed < 400.0);
        Alcotest.(check bool)
          (Printf.sprintf "rounds overlap (rot seen %.1f, repaired %.1f)"
             detected repaired)
          true (detected < repaired);
        Alcotest.(check bool) "all disks clean" true
          (Soda.Deployment.scrub_clean d);
        Alcotest.(check bool) "all live" true (Soda.Deployment.all_live d);
        let history = Soda.Deployment.history d in
        Alcotest.(check bool) "every op completed" true
          (Protocol.History.all_complete history);
        Alcotest.(check (result unit string)) "atomic" (Ok ())
          (Result.map_error
             (Format.asprintf "%a" Protocol.Atomicity.pp_violation)
             (Protocol.Atomicity.check_tagged ~initial_value
                (Protocol.History.records history)));
        Alcotest.(check (result unit string)) "causal" (Ok ())
          (Probe.heal_causality probe));
    Alcotest.test_case "a merely partitioned server is never wiped" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:23 in
        Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.of_string "keep me");
        Soda.Deployment.partition_servers d ~coordinates:[ 3 ] ~at:50.0;
        Soda.Deployment.heal_servers d ~coordinates:[ 3 ] ~at:200.0;
        Engine.run engine ~until:500.0;
        let hc = heal_counts d in
        (* the survivors do suspect the silent server... *)
        Alcotest.(check bool) "suspicion raised" true
          (hc.Metrics.suspicions >= 1);
        (* ...but the auto-repair hook sees it is not crashed and holds
           fire: no wipe, no repair round *)
        Alcotest.(check int) "no autonomous repair" 0
          hc.Metrics.auto_repairs;
        Alcotest.(check bool) "all live" true (Soda.Deployment.all_live d));
    Alcotest.test_case
      "a bad coordinate raises and leaves the probe stream unchanged" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:24 in
        Soda.Deployment.crash_server d ~coordinate:1 ~at:50.0;
        let probes = Probe.events (Soda.Deployment.probe d) in
        let pending = Engine.pending_events engine in
        let raises where f =
          List.iter
            (fun coordinate ->
              Alcotest.check_raises
                (Printf.sprintf "%s %d" where coordinate)
                (Invalid_argument
                   (Printf.sprintf "Deployment.%s: coordinate out of range"
                      where))
                (fun () -> f coordinate))
            [ -1; 5 ]
        in
        raises "crash_server" (fun coordinate ->
            Soda.Deployment.crash_server d ~coordinate ~at:60.0);
        raises "repair_server" (fun coordinate ->
            ignore (Soda.Deployment.repair_server d ~coordinate ~at:60.0 : int));
        raises "corrupt_server" (fun coordinate ->
            Soda.Deployment.corrupt_server d ~coordinate ~at:60.0);
        raises "set_error_window" (fun coordinate ->
            Soda.Deployment.set_error_window d ~coordinate None);
        raises "partition_servers" (fun coordinate ->
            Soda.Deployment.partition_servers d ~coordinates:[ 0; coordinate ]
              ~at:60.0);
        raises "heal_servers" (fun coordinate ->
            Soda.Deployment.heal_servers d ~coordinates:[ coordinate ] ~at:60.0);
        raises "server_pid" (fun coordinate ->
            ignore (Soda.Deployment.server_pid d ~coordinate : int));
        raises "server" (fun coordinate ->
            ignore (Soda.Deployment.server d ~coordinate : Soda.Server.t));
        Alcotest.(check int) "no probe emitted" (List.length probes)
          (List.length (Probe.events (Soda.Deployment.probe d)));
        Alcotest.(check int) "nothing scheduled" pending
          (Engine.pending_events engine))
  ]

(* ------------------------------------------------------------------ *)
(* Overhead posture: healing traffic is metadata only, and with healing
   off the plane leaves no trace at all. *)

let overhead_tests =
  [ Alcotest.test_case "heartbeat/scrub traffic is meta, never data" `Quick
      (fun () ->
        let run ~healing =
          let params = Params.make ~n:5 ~f:1 () in
          let engine =
            Engine.create ~seed:31
              ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
              ~delay:(Delay.constant 1.0) ()
          in
          let d =
            Soda.Deployment.deploy ~engine ~params ~healing ~num_writers:1
              ~num_readers:1 ()
          in
          Probe.record (Soda.Deployment.probe d);
          Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.make 64 'x');
          Soda.Deployment.read d ~reader:0 ~at:40.0 ();
          Engine.run engine ~until:200.0;
          (Engine.messages_data engine, Engine.messages_meta engine, d)
        in
        let data_off, meta_off, d_off = run ~healing:false in
        let data_on, meta_on, d_on = run ~healing:true in
        (* the plane adds meta traffic but not one data message *)
        Alcotest.(check int) "messages_data unchanged" data_off data_on;
        Alcotest.(check bool) "meta strictly grows" true (meta_on > meta_off);
        let hs_on = heal_stats d_on in
        Alcotest.(check bool) "heartbeats flowed" true
          (hs_on.Soda.Config.heartbeats_sent > 0);
        Alcotest.(check bool) "sweeps ran" true
          (hs_on.Soda.Config.scrub_sweeps > 0);
        (* healing=None: all plane counters stay zero *)
        let hs_off = heal_stats d_off in
        Alcotest.(check int) "no heartbeats" 0 hs_off.Soda.Config.heartbeats_sent;
        Alcotest.(check int) "no sweeps" 0 hs_off.Soda.Config.scrub_sweeps;
        Alcotest.(check int) "no suspicions" 0
          (heal_counts d_off).Metrics.suspicions)
  ]

(* ------------------------------------------------------------------ *)
(* Metrics.heal_episodes on a hand-built probe stream *)

let stream events =
  let probe = Probe.create () in
  Probe.record probe;
  List.iter (Probe.emit probe) events;
  probe

let episode_tests =
  [ Alcotest.test_case "episodes reconstruct MTTD and MTTR" `Quick (fun () ->
        let probe =
          stream
            [ Probe.Crash_injected { server = 1; time = 10.0 };
              Probe.Suspected { target = 1; by = 0; time = 45.0 };
              Probe.Suspected { target = 1; by = 3; time = 46.0 };
              Probe.Repaired { server = 1; tag = Tag.initial; time = 80.0 };
              Probe.Rot_injected { server = 3; time = 100.0 };
              Probe.Rot_detected { server = 3; time = 150.0 };
              Probe.Scrub_repaired
                { server = 3; tag = Tag.initial; time = 170.0 }
            ]
        in
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "two episodes" 2 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "mttd" [ 35.0; 50.0 ]
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "mttr" [ 70.0; 70.0 ]
          (Metrics.heal_mttr eps));
    Alcotest.test_case "rot healed by an overwriting write" `Quick (fun () ->
        let probe =
          stream
            [ Probe.Rot_injected { server = 2; time = 20.0 };
              (* no scrub ever saw it: a newer write landed first *)
              Probe.Stored { server = 2; tag = Tag.initial; time = 32.0 }
            ]
        in
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "one episode" 1 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "no detection" []
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "healed in 12" [ 12.0 ]
          (Metrics.heal_mttr eps));
    Alcotest.test_case "crashes scheduled ahead open their own episodes"
      `Quick (fun () ->
        (* both crashes of server 1 were scheduled at t=0, so both
           Crash_injected probes precede the first detection *)
        let probe =
          stream
            [ Probe.Crash_injected { server = 1; time = 50.0 };
              Probe.Crash_injected { server = 1; time = 300.0 };
              Probe.Suspected { target = 1; by = 0; time = 80.0 };
              Probe.Repaired { server = 1; tag = Tag.initial; time = 83.0 };
              Probe.Suspected { target = 1; by = 2; time = 335.0 };
              Probe.Repaired { server = 1; tag = Tag.initial; time = 340.0 }
            ]
        in
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check (list (float 1e-9))) "mttd" [ 30.0; 35.0 ]
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "mttr" [ 33.0; 40.0 ]
          (Metrics.heal_mttr eps));
    Alcotest.test_case "an unhealed fault stays an open episode" `Quick
      (fun () ->
        let probe =
          stream
            [ Probe.Crash_injected { server = 0; time = 5.0 };
              Probe.Suspected { target = 0; by = 4; time = 44.0 }
            ]
        in
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "one episode" 1 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "detected" [ 39.0 ]
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "never healed" []
          (Metrics.heal_mttr eps))
  ]

(* ------------------------------------------------------------------ *)
(* Probe.heal_causality: the healing plane's causality axioms *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let causality_tests =
  [ Alcotest.test_case "a well-formed healing stream is accepted" `Quick
      (fun () ->
        let probe =
          stream
            [ Probe.Crash_injected { server = 1; time = 10.0 };
              Probe.Suspected { target = 1; by = 0; time = 45.0 };
              Probe.Suspected { target = 1; by = 3; time = 46.0 };
              Probe.Auto_repair { server = 1; time = 46.0 };
              Probe.Repair_started { server = 1; time = 46.0 };
              Probe.Suspected { target = 2; by = 1; time = 60.0 };
              Probe.Repaired { server = 1; tag = Tag.initial; time = 80.0 };
              Probe.Rot_injected { server = 3; time = 100.0 };
              Probe.Rot_detected { server = 3; time = 150.0 };
              Probe.Scrub_repaired { server = 3; tag = Tag.initial; time = 170.0 }
            ]
        in
        Alcotest.(check (result unit string)) "accepted" (Ok ())
          (Probe.heal_causality probe));
    Alcotest.test_case "each forged axiom violation is rejected" `Quick
      (fun () ->
        let rejects what ~because events =
          match Probe.heal_causality (stream events) with
          | Ok () -> Alcotest.failf "%s: accepted" what
          | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names the axiom" what e)
              true (contains ~sub:because e)
        in
        rejects "auto-repair of a live server" ~because:"of live server"
          [ Probe.Suspected { target = 1; by = 0; time = 45.0 };
            Probe.Auto_repair { server = 1; time = 46.0 }
          ];
        rejects "auto-repair with only a pre-crash suspicion"
          ~because:"without a suspicion"
          [ Probe.Suspected { target = 1; by = 0; time = 2.0 };
            Probe.Crash_injected { server = 1; time = 5.0 };
            Probe.Auto_repair { server = 1; time = 46.0 }
          ];
        rejects "auto-repair on a suspicion of the previous crash"
          ~because:"without a suspicion"
          [ Probe.Crash_injected { server = 1; time = 5.0 };
            Probe.Suspected { target = 1; by = 0; time = 40.0 };
            Probe.Auto_repair { server = 1; time = 41.0 };
            Probe.Repair_started { server = 1; time = 41.0 };
            Probe.Crash_injected { server = 1; time = 100.0 };
            Probe.Auto_repair { server = 1; time = 140.0 }
          ];
        rejects "suspicion voiced by a crashed server"
          ~because:"voiced a suspicion"
          [ Probe.Crash_injected { server = 0; time = 5.0 };
            Probe.Suspected { target = 1; by = 0; time = 45.0 }
          ];
        rejects "rot detected on a crashed server" ~because:"detected rot"
          [ Probe.Crash_injected { server = 2; time = 5.0 };
            Probe.Rot_detected { server = 2; time = 30.0 }
          ];
        rejects "scrub repair by a crashed server" ~because:"reported a heal"
          [ Probe.Rot_injected { server = 3; time = 1.0 };
            Probe.Crash_injected { server = 3; time = 5.0 };
            Probe.Scrub_repaired { server = 3; tag = Tag.initial; time = 30.0 }
          ];
        rejects "repair completed by a crashed server"
          ~because:"reported a heal"
          [ Probe.Crash_injected { server = 4; time = 5.0 };
            Probe.Repaired { server = 4; tag = Tag.initial; time = 30.0 }
          ]);
    Alcotest.test_case "a crash scheduled ahead counts from its own time"
      `Quick (fun () ->
        (* the Crash_injected probe is emitted at t=0 and stamped 300:
           the rot the victim detects and heals before then is a live
           server's *)
        let engine, d = deploy_healed ~seed:25 in
        Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.of_string "ahead");
        Soda.Deployment.crash_server d ~coordinate:2 ~at:300.0;
        Soda.Deployment.corrupt_server d ~coordinate:2 ~at:100.0;
        Engine.run engine ~until:600.0;
        let hc = heal_counts d in
        Alcotest.(check bool) "rot detected and scrub-repaired first" true
          (hc.Metrics.scrub_hits >= 1 && hc.Metrics.scrub_repairs >= 1);
        Alcotest.(check int) "crash repaired by the detector" 1
          hc.Metrics.auto_repairs;
        Alcotest.(check (result unit string)) "causal" (Ok ())
          (Probe.heal_causality (Soda.Deployment.probe d)));
    Alcotest.test_case "a real crash-noheal run satisfies the axioms" `Quick
      (fun () ->
        let scenario = Option.get (Harness.Chaos.find "crash-noheal") in
        let o = Harness.Chaos.run scenario ~seed:1 in
        Alcotest.(check (result unit string)) "causal" (Ok ()) o.heal_ok;
        Alcotest.(check bool) "auto-repairs exercised the axiom" true
          ((Metrics.heal_counts o.probe).Metrics.auto_repairs > 0);
        Alcotest.(check bool) "cell ok" true (Harness.Chaos.ok o))
  ]

let () =
  Alcotest.run "healing"
    [ ("disk", disk_tests);
      ("plane", plane_tests);
      ("overhead", overhead_tests);
      ("episodes", episode_tests);
      ("causal", causality_tests)
    ]
