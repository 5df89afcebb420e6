(* Tests for the sharded keyspace layer: placement invariants
   (QCheck), semantic equivalence of a 1-key keyspace and a
   single-register deployment, per-key atomicity of multi-key runs, and
   the message economics of the shared plane vs independent
   deployments. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Atomicity = Protocol.Atomicity
module Topology = Soda.Topology
module Placement = Soda.Placement
module Keyspace = Soda.Keyspace

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Placement invariants *)

(* feasible random (topology, params, policy, key) instances *)
let placement_gen =
  QCheck2.Gen.(
    let* servers = int_range 5 40 in
    let* domains = int_range 1 servers in
    let* preset = oneofl [ `P4_2; `P10_4 ] in
    let params = Placement.preset_params preset in
    let* policy = oneofl [ Placement.Mod_stripe; Placement.Consistent_hash ] in
    let* key = int_range 0 100_000 in
    return (servers, domains, params, policy, key))

let feasible ~servers ~domains params =
  let n = Params.n params in
  let dused = min domains n in
  let cap = (n + dused - 1) / dused in
  n <= servers
  && (domains > n
      || Topology.min_domain_size (Topology.make ~servers ~domains ()) >= cap)

let placement_tests =
  [ qtest "placed servers are distinct, spread and balanced" placement_gen
      (fun (servers, domains, params, policy, key) ->
        let topology = Topology.make ~servers ~domains () in
        if not (feasible ~servers ~domains params) then
          (* infeasible geometry must be rejected at construction *)
          match Placement.create ~topology ~params ~policy () with
          | exception Invalid_argument _ -> true
          | _ -> false
        else begin
          let p = Placement.create ~topology ~params ~policy () in
          let coords = Placement.servers_of p ~key in
          let n = Params.n params in
          let dused = min domains n in
          let cap = (n + dused - 1) / dused in
          Array.length coords = n
          && List.length
               (List.sort_uniq Int.compare (Array.to_list coords))
             = n
          && Placement.domains_spanned p ~key = dused
          && Placement.max_per_domain p ~key <= cap
        end);
    qtest "placement is a pure function of the key" placement_gen
      (fun (servers, domains, params, policy, key) ->
        QCheck2.assume (feasible ~servers ~domains params);
        let topology = Topology.make ~servers ~domains () in
        let p1 = Placement.create ~topology ~params ~policy () in
        let p2 = Placement.create ~topology ~params ~policy () in
        Placement.servers_of p1 ~key = Placement.servers_of p2 ~key);
    qtest "consecutive coordinates span domains (the D-set property)"
      placement_gen
      (fun (servers, domains, params, policy, key) ->
        QCheck2.assume (feasible ~servers ~domains params);
        let topology = Topology.make ~servers ~domains () in
        let p = Placement.create ~topology ~params ~policy () in
        let coords = Placement.servers_of p ~key in
        (* the first min(f+1, domains) coordinates — the MD primitives'
           distinguished set D — must lie in distinct domains *)
        let d_span = min (Params.f params + 1) domains in
        let seen = Hashtbl.create 8 in
        let ok = ref true in
        for i = 0 to d_span - 1 do
          let d = Topology.domain_of topology coords.(i) in
          if Hashtbl.mem seen d then ok := false;
          Hashtbl.replace seen d ()
        done;
        !ok);
    Alcotest.test_case "domain_safe iff per-domain share <= f" `Quick
      (fun () ->
        let params = Placement.preset_params `P4_2 in
        (* 12 servers / 3 domains: cap = 2 = f -> safe *)
        let safe =
          Placement.create
            ~topology:(Topology.make ~servers:12 ~domains:3 ())
            ~params ()
        in
        Alcotest.(check bool) "3 domains safe" true (Placement.domain_safe safe);
        (* 12 servers / 2 domains: cap = 3 > f -> unsafe *)
        let unsafe =
          Placement.create
            ~topology:(Topology.make ~servers:12 ~domains:2 ())
            ~params ()
        in
        Alcotest.(check bool) "2 domains unsafe" false
          (Placement.domain_safe unsafe));
    Alcotest.test_case "presets and topology validation" `Quick (fun () ->
        Alcotest.(check bool) "4+2" true
          (match Placement.preset_of_string "4+2" with
          | Some `P4_2 -> true
          | _ -> false);
        Alcotest.(check bool) "10+4" true
          (match Placement.preset_of_string "10+4" with
          | Some `P10_4 -> true
          | _ -> false);
        Alcotest.(check bool) "junk" true
          (Placement.preset_of_string "9+9" = None);
        Alcotest.(check bool) "domains > servers rejected" true
          (match Topology.make ~servers:3 ~domains:4 () with
          | exception Invalid_argument _ -> true
          | _ -> false))
  ]

(* ------------------------------------------------------------------ *)
(* The two construction paths agree on a single register *)

let round_value i = Harness.Workload.value ~len:96 ~seed:i ~index:i

(* One sequential workload: round [i] reads at [100 i] and writes at
   [100 i + 50], then a final read. Each operation finishes within six
   message delays of at most 2.0 (Thm 5.7), so no two operations
   overlap and every read must return the latest preceding write.
   Returns a thunk giving the read values in completion order, to call
   after the engine has run. *)
let sequential_run ~rounds ~write ~read =
  let reads = ref [] in
  let record v = reads := Bytes.to_string v :: !reads in
  for i = 0 to rounds - 1 do
    let at = float_of_int i *. 100.0 in
    read ~at ~on_done:record;
    write ~at:(at +. 50.0) (round_value i)
  done;
  read ~at:(float_of_int rounds *. 100.0) ~on_done:record;
  fun () -> List.rev !reads

(* What a sequential run must read: the empty initial value, then each
   round's write. *)
let expected_reads ~rounds =
  "" :: List.init rounds (fun i -> Bytes.to_string (round_value i))

let atomic history =
  Result.is_ok
    (Atomicity.check_tagged ~initial_value:Bytes.empty (History.records history))

let equivalence_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n = int_range 3 8 in
    let* f = int_range 1 ((n - 1) / 2) in
    let* rounds = int_range 1 4 in
    return (seed, n, f, rounds))

let single_register_tests =
  [ qtest ~count:25
      "deploy and a 1-key keyspace return the same reads, both atomic"
      equivalence_gen
      (fun (seed, n, f, rounds) ->
        let params = Params.make ~n ~f () in
        let engine () =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let e1 = engine () in
        let d =
          Soda.Deployment.deploy ~engine:e1 ~params ~num_writers:1
            ~num_readers:1 ()
        in
        let deploy_reads =
          sequential_run ~rounds
            ~write:(fun ~at v -> Soda.Deployment.write d ~writer:0 ~at v)
            ~read:(fun ~at ~on_done ->
              Soda.Deployment.read d ~reader:0 ~at ~on_done ())
        in
        Engine.run e1;
        let e2 = engine () in
        let topology = Topology.make ~servers:n ~domains:1 () in
        let ks =
          Keyspace.create ~engine:e2
            ~placement:(Placement.create ~topology ~params ())
            ~num_writers:1 ~num_readers:1 ()
        in
        let keyspace_reads =
          sequential_run ~rounds
            ~write:(fun ~at v -> Keyspace.write ks ~key:0 ~writer:0 ~at v)
            ~read:(fun ~at ~on_done ->
              Keyspace.read ks ~key:0 ~reader:0 ~at ~on_done ())
        in
        Engine.run e2;
        let deploy_reads = deploy_reads () in
        deploy_reads = keyspace_reads ()
        && deploy_reads = expected_reads ~rounds
        && atomic (Soda.Deployment.history d)
        && atomic (Keyspace.history ks ~key:0))
  ]

(* A register is the 1-key keyspace over an identity placement, frame
   for frame: same seed, same pids, same closed-loop clients, so the
   same delays are drawn for the same sends. Only the key wrapping of
   each frame differs. *)

type observed = {
  records :
    (int * int * History.kind * float * float option * Protocol.Tag.t option
    * string option)
    list;
  sent : int;
  units : int
}

let observe engine history =
  { records =
      List.map
        (fun (r : History.record) ->
          ( r.History.op,
            r.History.client,
            r.History.kind,
            r.History.invoked_at,
            r.History.responded_at,
            r.History.tag,
            Option.map Bytes.to_string r.History.value ))
        (History.records history);
    sent = Engine.messages_sent engine;
    units = Engine.payload_units engine
  }

(* 2 writers and 2 readers, each re-arming itself on completion. *)
let closed_loop engine ~write ~read =
  let rec writer w left () =
    if left > 0 then
      write ~writer:w ~at:(Engine.now engine +. 0.5)
        ~on_done:(writer w (left - 1))
        (Harness.Workload.value ~len:48 ~seed:w ~index:left)
  in
  let rec reader r left () =
    if left > 0 then
      read ~reader:r ~at:(Engine.now engine +. 0.5) ~on_done:(fun _ ->
          reader r (left - 1) ())
  in
  for c = 0 to 1 do
    writer c 6 ();
    reader c 6 ()
  done

let register_vs_keyspace ~plane ~lossy (seed, n, f) =
  let params = Params.make ~n ~f () in
  let engine () =
    let e =
      Engine.create ~seed ~weigh:Soda.Messages.logical_units
        ?transport:(if lossy then Some (`Reliable Simnet.Channel.default) else None)
        ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
    in
    if lossy then Engine.set_loss e 0.2;
    e
  in
  let e1 = engine () in
  let d =
    Soda.Deployment.deploy ~engine:e1 ~params ?plane ~num_writers:2
      ~num_readers:2 ()
  in
  closed_loop e1
    ~write:(fun ~writer ~at ~on_done v ->
      Soda.Deployment.write d ~writer ~at ~on_done v)
    ~read:(fun ~reader ~at ~on_done -> Soda.Deployment.read d ~reader ~at ~on_done ());
  Engine.run e1;
  let e2 = engine () in
  let ks =
    Keyspace.create ~engine:e2
      ~placement:
        (Placement.create ~topology:(Topology.make ~servers:n ~domains:1 ())
           ~params ())
      ?plane ~num_writers:2 ~num_readers:2 ()
  in
  closed_loop e2
    ~write:(fun ~writer ~at ~on_done v ->
      Keyspace.write ks ~key:0 ~writer ~at ~on_done v)
    ~read:(fun ~reader ~at ~on_done ->
      Keyspace.read ks ~key:0 ~reader ~at ~on_done ());
  Engine.run e2;
  let a = observe e1 (Soda.Deployment.history d)
  and b = observe e2 (Keyspace.history ks ~key:0) in
  List.length a.records = 24
  && History.all_complete (Soda.Deployment.history d)
  && a = b

let identity_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n = int_range 3 8 in
    let* f = int_range 1 ((n - 1) / 2) in
    return (seed, n, f))

let identity_tests =
  List.concat_map
    (fun (name, plane) ->
      [ qtest ~count:15
          (Printf.sprintf
             "%s plane: a register and its 1-key keyspace give the same \
              history, messages and payload units"
             name)
          identity_gen
          (register_vs_keyspace ~plane ~lossy:false);
        qtest ~count:5
          (Printf.sprintf
             "%s plane, 20%% loss: a register and its 1-key keyspace give \
              the same history, messages and payload units"
             name)
          identity_gen
          (register_vs_keyspace ~plane ~lossy:true)
      ])
    [ ("paper", None); ("batched", Some Soda.Config.batched_plane) ]

(* ------------------------------------------------------------------ *)
(* Multi-key runs *)

(* [wl] on a fresh engine and a batched-plane keyspace over [placement],
   its operations injected, not yet run. [before] and [after] engine
   processes are reserved around [Keyspace.create], so the keyspace's
   pids need not start at 0 nor end the pid range. *)
let batched_keyspace ?(before = 0) ?(after = 0) ~placement
    (wl : Harness.Workload.sharded) =
  let engine =
    Engine.create ~seed:wl.Harness.Workload.sh_seed
      ~delay:wl.Harness.Workload.sh_delay ()
  in
  let reserve tag i =
    ignore (Engine.reserve engine ~name:(Printf.sprintf "%s%d" tag i) : int)
  in
  for i = 1 to before do reserve "before" i done;
  let ks =
    Keyspace.create ~engine ~placement ~plane:Soda.Config.batched_plane
      ~value_len:wl.Harness.Workload.sh_value_len
      ~num_writers:wl.Harness.Workload.sh_num_writers
      ~num_readers:wl.Harness.Workload.sh_num_readers ()
  in
  for i = 1 to after do reserve "after" i done;
  List.iter
    (function
      | Harness.Workload.KWrite { key; writer; at; index } ->
        Keyspace.write ks ~key ~writer ~at
          (Harness.Workload.value ~len:wl.Harness.Workload.sh_value_len
             ~seed:wl.Harness.Workload.sh_seed ~index)
      | Harness.Workload.KRead { key; reader; at } ->
        Keyspace.read ks ~key ~reader ~at ())
    wl.Harness.Workload.sh_kops;
  (engine, ks)

let p4_2_placement ?policy ~servers ~domains () =
  Placement.create
    ~topology:(Topology.make ~servers ~domains ())
    ~params:(Placement.preset_params `P4_2)
    ?policy ()

let sharded_tests =
  [ qtest ~count:20 "sharded runs are live and atomic per key"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let topology = Topology.make ~servers:12 ~domains:3 () in
        let placement =
          Placement.create ~topology
            ~params:(Placement.preset_params `P4_2)
            ~policy:Placement.Consistent_hash ()
        in
        let wl =
          Harness.Workload.sharded_mixed ~keys:24 ~value_len:64 ~seed
            ~num_writers:3 ~num_readers:3 ()
        in
        let r = Harness.Runner.run_sharded ~placement wl in
        r.Harness.Runner.s_complete && r.Harness.Runner.s_atomic
        && r.Harness.Runner.s_keys = 24);
    Alcotest.test_case "reads see the key's own write, not a neighbour's"
      `Quick (fun () ->
        let topology = Topology.make ~servers:9 ~domains:3 () in
        let placement =
          Placement.create ~topology
            ~params:(Placement.preset_params `P4_2)
            ()
        in
        let engine = Engine.create ~seed:5 ~delay:(Delay.constant 1.0) () in
        let ks =
          Keyspace.create ~engine ~placement ~num_writers:1 ~num_readers:1 ()
        in
        let results = Hashtbl.create 8 in
        for key = 0 to 7 do
          Keyspace.write ks ~key ~writer:0 ~at:0.0
            (Bytes.of_string (Printf.sprintf "value-%d" key));
          Keyspace.read ks ~key ~reader:0 ~at:40.0
            ~on_done:(fun v -> Hashtbl.replace results key v)
            ()
        done;
        Engine.run engine;
        for key = 0 to 7 do
          match Hashtbl.find_opt results key with
          | Some v ->
            Alcotest.(check string)
              (Printf.sprintf "key %d" key)
              (Printf.sprintf "value-%d" key)
              (Bytes.to_string v)
          | None -> Alcotest.fail (Printf.sprintf "key %d: read incomplete" key)
        done);
    Alcotest.test_case "cross-key gossip leaves in enqueue order" `Quick
      (fun () ->
        (* Every entry a server queues is one of its own relays, and the
           relay's probe event carries the time it was queued; a frame
           drained in enqueue order lists entries by nondecreasing relay
           time. *)
        let placement =
          p4_2_placement ~policy:Placement.Consistent_hash ~servers:12
            ~domains:3 ()
        in
        let wl =
          Harness.Workload.sharded_mixed ~keys:60 ~value_len:64 ~seed:11
            ~num_writers:4 ~num_readers:4 ~round_gap:10.0 ()
        in
        let engine, ks = batched_keyspace ~placement wl in
        List.iter
          (fun key -> Protocol.Probe.record (Keyspace.probe ks ~key))
          (Keyspace.keys ks);
        let envelopes = ref [] in
        Engine.set_tap engine
          { Engine.tap_deliver =
              (fun ~time:_ ~src:_ ~dst:_ msg ->
                match msg with
                | Soda.Messages.Keyed_envelope { kentries; _ } ->
                  envelopes := kentries :: !envelopes
                | _ -> ());
            tap_ack = (fun ~time:_ ~src:_ ~dst:_ ~cumulative:_ ~seq:_ -> ())
          };
        Engine.run engine;
        Alcotest.(check bool) "complete" true (Keyspace.all_complete ks);
        let relay_time (ke : Soda.Messages.keyed_entry) =
          let { Soda.Messages.tag; server_index; rid } =
            ke.Soda.Messages.ke_entry
          in
          List.find_map
            (function
              | Protocol.Probe.Relayed r
                when r.rid = rid && r.server = server_index
                     && Protocol.Tag.equal r.tag tag ->
                Some r.time
              | _ -> None)
            (Protocol.Probe.events
               (Keyspace.probe ks ~key:ke.Soda.Messages.ke_key))
          |> Option.get
        in
        let spread = ref 0 in
        List.iter
          (fun kentries ->
            let times = List.map relay_time kentries in
            Alcotest.(check (list (float 0.0)))
              "entries by relay time" (List.sort Float.compare times) times;
            if List.length (List.sort_uniq Float.compare times) > 1 then
              incr spread)
          !envelopes;
        (* the check bites only on frames mixing relay times *)
        if !spread = 0 then Alcotest.fail "no envelope mixed relay times");
    Alcotest.test_case "a run nobody records leaves every probe fresh" `Quick
      (fun () ->
        (* every read registers and relays at its key's servers, so a
           probe that kept its events would outgrow a fresh one *)
        let placement =
          p4_2_placement ~policy:Placement.Consistent_hash ~servers:12
            ~domains:3 ()
        in
        let wl =
          Harness.Workload.sharded_mixed ~keys:60 ~value_len:64 ~seed:11
            ~num_writers:4 ~num_readers:4 ~round_gap:10.0 ()
        in
        let engine, ks = batched_keyspace ~placement wl in
        Engine.run engine;
        Alcotest.(check bool) "complete" true (Keyspace.all_complete ks);
        let words probe = Obj.reachable_words (Obj.repr probe) in
        let fresh = words (Protocol.Probe.create ()) in
        List.iter
          (fun key ->
            Alcotest.(check int)
              (Printf.sprintf "key %d probe words" key)
              fresh
              (words (Keyspace.probe ks ~key)))
          (Keyspace.keys ks));
    Alcotest.test_case "pids need not start at 0" `Quick (fun () ->
        (* the plane's pid-indexed boxes must cover pids reserved before
           the keyspace and tolerate pids reserved after it; the extra
           processes take no part, so the run sends exactly what the
           same workload sends on a keyspace owning pids 0.. *)
        let placement =
          p4_2_placement ~policy:Placement.Consistent_hash ~servers:12
            ~domains:3 ()
        in
        let wl =
          Harness.Workload.sharded_mixed ~keys:40 ~value_len:64 ~seed:3
            ~num_writers:3 ~num_readers:3 ~round_gap:10.0 ()
        in
        let sent ?before ?after () =
          let engine, ks = batched_keyspace ?before ?after ~placement wl in
          Engine.run engine;
          Alcotest.(check bool) "every key live" true (Keyspace.all_complete ks);
          Alcotest.(check bool) "every key atomic" true
            (Result.is_ok (Keyspace.check_atomicity ks));
          Alcotest.(check int) "keys" 40 (List.length (Keyspace.keys ks));
          Engine.messages_sent engine
        in
        let plain = sent () in
        Alcotest.(check int) "messages_sent" plain (sent ~before:3 ~after:1 ()));
    Alcotest.test_case "negative keys are rejected" `Quick (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let ks =
          Keyspace.create ~engine
            ~placement:(p4_2_placement ~servers:9 ~domains:3 ())
            ~num_writers:1 ~num_readers:1 ()
        in
        Keyspace.materialize ks ~key:0;
        let rejects name f =
          Alcotest.(check bool) name true
            (match f () with
            | exception Invalid_argument _ -> true
            | () -> false)
        in
        List.iter
          (fun key ->
            rejects "write" (fun () ->
                Keyspace.write ks ~key ~writer:0 ~at:0.0 (Bytes.of_string "v"));
            rejects "read" (fun () -> Keyspace.read ks ~key ~reader:0 ~at:0.0 ());
            rejects "materialize" (fun () -> Keyspace.materialize ks ~key);
            rejects "config" (fun () -> ignore (Keyspace.config ks ~key));
            rejects "history" (fun () -> ignore (Keyspace.history ks ~key));
            rejects "placement_of" (fun () ->
                ignore (Keyspace.placement_of ks ~key)))
          [ -1; -2; min_int ];
        Alcotest.(check (list int)) "keys" [ 0 ] (Keyspace.keys ks));
    Alcotest.test_case "client indices out of range are rejected" `Quick
      (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let ks =
          Keyspace.create ~engine
            ~placement:(p4_2_placement ~servers:9 ~domains:3 ())
            ~num_writers:2 ~num_readers:1 ()
        in
        Keyspace.materialize ks ~key:0;
        let pending = Engine.pending_events engine in
        List.iter
          (fun i ->
            Alcotest.check_raises
              (Printf.sprintf "writer %d" i)
              (Invalid_argument "Keyspace.write: writer out of range")
              (fun () ->
                Keyspace.write ks ~key:1 ~writer:i ~at:0.0
                  (Bytes.of_string "v"));
            Alcotest.check_raises
              (Printf.sprintf "reader %d" i)
              (Invalid_argument "Keyspace.read: reader out of range")
              (fun () -> Keyspace.read ks ~key:1 ~reader:(i - 1) ~at:0.0 ()))
          [ -1; 2; 5 ];
        Alcotest.(check int) "nothing scheduled" pending
          (Engine.pending_events engine);
        Alcotest.(check (list int)) "no instance materialized" [ 0 ]
          (Keyspace.keys ks));
    Alcotest.test_case "a frame for an unmaterialized key is refused" `Quick
      (fun () ->
        (* clients materialize a key before they send on it and servers
           frame only for their own instances, so a frame for a key the
           keyspace never materialized comes from outside it: the
           server refuses it instead of building the instance *)
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let ks =
          Keyspace.create ~engine
            ~placement:(p4_2_placement ~servers:6 ~domains:3 ())
            ~num_writers:1 ~num_readers:1 ()
        in
        let foreign = Engine.reserve engine ~name:"foreign" in
        Engine.set_handler engine foreign (fun _ ~src:_ _ -> ());
        Engine.inject engine ~at:0.0 foreign (fun ctx ->
            (* pid 0 is server 0, which hosts every key of a 6-server
               [6,4] placement *)
            Engine.send ctx ~dst:0
              (Soda.Messages.Keyed
                 { key = 7; msg = Soda.Messages.Read_get { rid = 0 } }));
        Alcotest.check_raises "refused"
          (Invalid_argument
             "Keyspace: frame for a key this server does not host")
          (fun () -> Engine.run engine);
        Alcotest.(check (list int)) "no instance materialized" []
          (Keyspace.keys ks));
    Alcotest.test_case "corrupt_server touches exactly its hosted keys" `Quick
      (fun () ->
        let placement =
          p4_2_placement ~policy:Placement.Consistent_hash ~servers:12
            ~domains:3 ()
        in
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let ks =
          Keyspace.create ~engine ~placement ~num_writers:1 ~num_readers:1 ()
        in
        let keys = 50 and server = 5 in
        for key = 0 to keys - 1 do
          Keyspace.materialize ks ~key;
          Protocol.Probe.record (Keyspace.probe ks ~key)
        done;
        Keyspace.corrupt_server ks ~server ~at:1.0;
        Engine.run engine;
        let hit = ref 0 in
        for key = 0 to keys - 1 do
          let coords = Placement.servers_of placement ~key in
          let expected =
            List.filter
              (fun c -> coords.(c) = server)
              (List.init (Array.length coords) Fun.id)
          in
          let injected =
            List.filter_map
              (function
                | Protocol.Probe.Rot_injected { server = c; _ } -> Some c
                | _ -> None)
              (Protocol.Probe.events (Keyspace.probe ks ~key))
          in
          if expected <> [] then incr hit;
          Alcotest.(check (list int))
            (Printf.sprintf "key %d corrupted coordinates" key)
            expected injected
        done;
        (* the check bites only if the server hosts some keys, not all *)
        Alcotest.(check bool) "server hosts some keys" true
          (!hit > 0 && !hit < keys));
    Alcotest.test_case
      "shared plane beats independent deployments on msgs/op" `Quick
      (fun () ->
        let params = Placement.preset_params `P4_2 in
        let topology = Topology.make ~servers:12 ~domains:3 () in
        let placement =
          Placement.create ~topology ~params
            ~policy:Placement.Consistent_hash ()
        in
        let wl =
          Harness.Workload.sharded_mixed ~keys:60 ~value_len:64 ~seed:11
            ~num_writers:4 ~num_readers:4 ~round_gap:10.0 ()
        in
        let shared =
          Harness.Runner.run_sharded ~plane:Soda.Config.batched_plane
            ~placement wl
        in
        (* the pre-keyspace composition this PR replaces: one default-
           plane deployment per key (broadcast read gossip) *)
        let independent =
          Harness.Runner.run_sharded_independent ~params wl
        in
        (* same composition with every per-key plane already batched —
           the strongest per-key baseline *)
        let independent_batched =
          Harness.Runner.run_sharded_independent
            ~plane:Soda.Config.batched_plane ~params wl
        in
        Alcotest.(check bool) "shared complete" true
          shared.Harness.Runner.s_complete;
        Alcotest.(check bool) "independent complete" true
          independent.Harness.Runner.s_complete;
        let m_shared = Harness.Metrics.sharded_msgs_per_op shared in
        let m_indep = Harness.Metrics.sharded_msgs_per_op independent in
        let m_indep_b = Harness.Metrics.sharded_msgs_per_op independent_batched in
        Alcotest.(check bool)
          (Printf.sprintf "msgs/op %.2f < %.2f (vs default planes)" m_shared
             m_indep)
          true (m_shared < m_indep);
        Alcotest.(check bool)
          (Printf.sprintf "msgs/op %.2f <= %.2f (vs batched planes)" m_shared
             m_indep_b)
          true (m_shared <= m_indep_b);
        (* coalescing factor: the shared plane packs more logical units
           into an average frame than per-key planes can *)
        Alcotest.(check bool) "frames actually coalesce" true
          (Harness.Metrics.sharded_units_per_msg shared
          > Harness.Metrics.sharded_units_per_msg independent_batched))
  ]

let () =
  Alcotest.run "keyspace"
    [ ("placement", placement_tests);
      ("register", single_register_tests @ identity_tests);
      ("sharded", sharded_tests)
    ]
