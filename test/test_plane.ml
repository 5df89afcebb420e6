(* Observable equivalence of the batched message plane: on the same
   seeded workload, SODA on Config.batched_plane (coalesced gossip
   envelopes, relay batching, staggered metadata forwards) must return
   the same reads, relay the same tags to each read, and converge to the
   same final registration state as the broadcast plane — only the
   message count and the schedule may change. Which servers relay
   depends on the schedule: a server whose READ-VALUE arrives after the
   read's READ-COMPLETE never registers it, and one whose READ-VALUE
   arrives after the read returned but before its READ-COMPLETE still
   relays. Both planes must have at least k servers relay the returned
   tag, since the reader decodes from k of them. Complements the chaos
   cell "batched20+part", which checks the same plane under loss and
   partitions. *)

module Params = Protocol.Params
module Tag = Protocol.Tag
module History = Protocol.History
module Probe = Protocol.Probe
module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

(* ------------------------------------------------------------------ *)
(* observables *)

let read_outcomes (r : Runner.result) =
  History.records r.Runner.history
  |> List.filter_map (fun o ->
         if o.History.kind = History.Read then
           Some (o.History.op, Option.map Bytes.to_string o.History.value)
         else None)
  |> List.sort compare

let relay_multiset (r : Runner.result) =
  match r.Runner.probe with
  | None -> []
  | Some p ->
    Probe.events p
    |> List.filter_map (function
         | Probe.Relayed { rid; server; tag; _ } ->
           Some (rid, server, tag.Tag.z, tag.Tag.w)
         | _ -> None)
    |> List.sort compare

(* Per read, the set of tags relayed to it. *)
let relayed_tags (r : Runner.result) =
  relay_multiset r
  |> List.map (fun (rid, _, z, w) -> (rid, z, w))
  |> List.sort_uniq compare

(* Every completed read had at least [k] distinct servers relay the tag
   it returned. *)
let k_relayers_of_returned_tag ~k (r : Runner.result) =
  let relays = relay_multiset r in
  History.records r.Runner.history
  |> List.for_all (fun o ->
         match (o.History.kind, o.History.tag) with
         | History.Read, Some tag ->
           relays
           |> List.filter_map (fun (rid, server, z, w) ->
                  if rid = o.History.op && z = tag.Tag.z && w = tag.Tag.w then
                    Some server
                  else None)
           |> List.sort_uniq compare |> List.length >= k
         | History.Read, None | History.Write, _ -> true)

(* No server relays to a read after it unregistered that read. *)
let relays_before_unregistration (r : Runner.result) =
  match r.Runner.probe with
  | None -> true
  | Some p ->
    let unregistered = Hashtbl.create 16 in
    List.for_all
      (function
        | Probe.Unregistered { rid; server; _ } ->
          Hashtbl.replace unregistered (rid, server) ();
          true
        | Probe.Relayed { rid; server; _ } ->
          not (Hashtbl.mem unregistered (rid, server))
        | _ -> true)
      (Probe.events p)

(* The relay property both planes share. *)
let same_relays ~k a b =
  relayed_tags a = relayed_tags b
  && k_relayers_of_returned_tag ~k a
  && k_relayers_of_returned_tag ~k b
  && relays_before_unregistration a
  && relays_before_unregistration b

(* final registered-reader set from the probe stream: last
   Registered/Unregistered event per (rid, server) wins *)
let final_registered_of_events events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Probe.Registered { rid; server; _ } ->
        Hashtbl.replace tbl (rid, server) true
      | Probe.Unregistered { rid; server; _ } ->
        Hashtbl.replace tbl (rid, server) false
      | _ -> ())
    events;
  Hashtbl.fold (fun k live acc -> if live then k :: acc else acc) tbl []
  |> List.sort compare

let final_registered (r : Runner.result) =
  match r.Runner.probe with
  | None -> []
  | Some p -> final_registered_of_events (Probe.events p)

(* ------------------------------------------------------------------ *)
(* QCheck: equivalence over seeded workloads *)

let check_equiv ~msg ~k a b =
  Alcotest.(check (list (pair int (option string))))
    (msg ^ ": read outcomes") (read_outcomes a) (read_outcomes b);
  Alcotest.(check bool) (msg ^ ": relays") true (same_relays ~k a b);
  Alcotest.(check bool)
    (msg ^ ": final registrations") true
    (final_registered a = final_registered b)

let equiv_sequential =
  QCheck.Test.make ~count:12
    ~name:
      "sequential workloads: batched plane returns the same reads, relays \
       and registrations"
    QCheck.(tup2 (int_range 0 10_000) (int_range 1 3))
    (fun (seed, rounds) ->
      let params = Params.make ~n:5 ~f:1 () in
      let w = Workload.sequential ~params ~value_len:64 ~seed ~rounds () in
      let a = Runner.run Runner.Soda w in
      let b = Runner.run ~plane:Soda.Config.batched_plane Runner.Soda w in
      let sa = Metrics.summarize a and sb = Metrics.summarize b in
      sa.Metrics.liveness && sa.Metrics.atomic && sb.Metrics.liveness
      && sb.Metrics.atomic
      && read_outcomes a = read_outcomes b
      && same_relays ~k:(Params.k_soda params) a b
      (* quiescent runs leave no registration on either plane: coalesced
         READ-DISPERSE and tombstone pruning must not strand readers *)
      && final_registered a = []
      && final_registered b = [])

let equiv_concurrent =
  QCheck.Test.make ~count:8
    ~name:
      "concurrent workloads: batched plane stays live, atomic and fully \
       unregistered"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let params = Params.make ~n:5 ~f:1 () in
      let w =
        Workload.concurrent ~params ~value_len:64 ~seed ~num_writers:2
          ~num_readers:2 ~ops_per_client:3 ()
      in
      let b = Runner.run ~plane:Soda.Config.batched_plane Runner.Soda w in
      let sb = Metrics.summarize b in
      (* overlapping operations can legitimately read different (atomic)
         values under the two planes' timings, so the cross-plane check
         is the invariant part: liveness, atomicity, and convergence of
         the registration protocol *)
      sb.Metrics.liveness && sb.Metrics.atomic && final_registered b = [])

(* ------------------------------------------------------------------ *)
(* deterministic corner cases *)

let deploy_both ~n ~f ~seed drive =
  let observe plane =
    let params = Params.make ~n ~f () in
    let engine = Engine.create ~seed ~delay:(Delay.constant 1.0) () in
    let d =
      Soda.Deployment.deploy ~engine ~params
        ~initial_value:(Bytes.make 48 'i')
        ?plane ~num_writers:1 ~num_readers:1 ()
    in
    drive d;
    Engine.run engine;
    d
  in
  (observe None, observe (Some Soda.Config.batched_plane))

let registered_sets d ~n =
  List.init n (fun c ->
      Soda.Deployment.server d ~coordinate:c |> Soda.Server.registered_reads)

let corner_tests =
  [ Alcotest.test_case
      "crashed reader: servers converge to empty registration via gossip on \
       both planes"
      `Quick (fun () ->
        let n = 5 and f = 1 in
        let a, b =
          deploy_both ~n ~f ~seed:3 (fun d ->
              Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 48 'w');
              Soda.Deployment.read d ~reader:0 ~at:50.0 ();
              (* the reader dies after its READ-VALUE is in flight but
                 before any relay can reach it: no READ-COMPLETE, so
                 unregistration must come from the k-threshold gossip *)
              Soda.Deployment.crash_reader d ~reader:0 ~at:51.5)
        in
        Alcotest.(check (list (list int)))
          "both planes fully unregistered"
          (List.init n (fun _ -> []))
          (registered_sets a ~n);
        Alcotest.(check (list (list int)))
          "batched matches broadcast" (registered_sets a ~n)
          (registered_sets b ~n));
    Alcotest.test_case
      "below-threshold gossip: surviving servers stay registered identically"
      `Quick (fun () ->
        let n = 5 and f = 1 in
        let a, b =
          deploy_both ~n ~f ~seed:4 (fun d ->
              Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 48 'w');
              (* two servers down leaves 3 < k = 4 announcers, and the
                 starved reader never completes: the registration must
                 persist — equally — on both planes *)
              Soda.Deployment.crash_server d ~coordinate:3 ~at:40.0;
              Soda.Deployment.crash_server d ~coordinate:4 ~at:40.0;
              Soda.Deployment.read d ~reader:0 ~at:50.0 ())
        in
        let alive_sets d =
          List.init 3 (fun c ->
              Soda.Deployment.server d ~coordinate:c
              |> Soda.Server.registered_reads)
        in
        List.iter
          (fun s -> Alcotest.(check bool) "still registered" false (s = []))
          (alive_sets a);
        Alcotest.(check (list (list int)))
          "batched matches broadcast" (alive_sets a) (alive_sets b));
    Alcotest.test_case
      "same-seed equivalence on one mixed workload (n=7, f=2)" `Quick
      (fun () ->
        let params = Params.make ~n:7 ~f:2 () in
        let w = Workload.sequential ~params ~value_len:96 ~seed:11 ~rounds:3 () in
        let a = Runner.run Runner.Soda w in
        let b = Runner.run ~plane:Soda.Config.batched_plane Runner.Soda w in
        check_equiv ~msg:"n=7" ~k:(Params.k_soda params) a b;
        (* and the point of the whole exercise: fewer messages *)
        Alcotest.(check bool) "batched sends fewer messages" true
          (b.Runner.messages_sent < a.Runner.messages_sent));
    Alcotest.test_case
      "workload seed 7756, 1 round: the planes relay from different servers"
      `Quick (fun () ->
        (* On the broadcast plane server 4 gets the READ-COMPLETE before
           the READ-VALUE and never registers the read. On the batched
           plane server 4 relays before the read returns, and server 2
           registers and relays after it returned but before its own
           READ-COMPLETE arrives. Both are legal schedules. *)
        let params = Params.make ~n:5 ~f:1 () in
        let w = Workload.sequential ~params ~value_len:64 ~seed:7756 ~rounds:1 () in
        let a = Runner.run Runner.Soda w in
        let b = Runner.run ~plane:Soda.Config.batched_plane Runner.Soda w in
        check_equiv ~msg:"seed 7756" ~k:(Params.k_soda params) a b)
  ]

let () =
  Alcotest.run "batched-plane"
    [ ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ equiv_sequential; equiv_concurrent ]
      );
      ("corners", corner_tests)
    ]
