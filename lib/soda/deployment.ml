module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe

type t = {
  engine : Messages.t Engine.t;
  config : Config.t;
  servers : Server.t array;
  writers : Writer.t array;
  writer_pids : int array;
  readers : Reader.t array;
  reader_pids : int array;
  (* the batched plane's outboxes and relay boxes; [None] on the other
     planes, whose sends go straight to the engine *)
  plane : (Messages.gossip_entry, Messages.t) Plane.t option;
  (* repair traffic is charged to synthetic op ids scoped to this
     deployment (one deployment = one register = one ledger), so id
     streams are reproducible regardless of what other deployments the
     process hosts — keyspaces scope theirs per key the same way *)
  repair_seq : int ref
}

(* Checked before anything is scheduled or emitted, so a bad coordinate
   leaves the engine and the probe stream untouched. *)
let check_coordinate t coordinate ~where =
  if coordinate < 0 || coordinate >= Array.length t.servers then
    invalid_arg (Printf.sprintf "Deployment.%s: coordinate out of range" where)

let check_writer t writer ~where =
  if writer < 0 || writer >= Array.length t.writers then
    invalid_arg (Printf.sprintf "Deployment.%s: writer out of range" where)

let check_reader t reader ~where =
  if reader < 0 || reader >= Array.length t.readers then
    invalid_arg (Printf.sprintf "Deployment.%s: reader out of range" where)

let repair_server t ~coordinate ~at =
  check_coordinate t coordinate ~where:"repair_server";
  let pid = t.config.Config.servers.(coordinate) in
  let op = Server.repair_op ~seq:!(t.repair_seq) in
  incr t.repair_seq;
  Engine.restore_at t.engine pid at;
  (* the injection is pushed after the restore event at the same
     timestamp, so it runs on the freshly restored process *)
  Engine.inject t.engine ~at pid (fun ctx ->
      (* the crash lost the server's pending gossip and relays with
         their flush timers *)
      Option.iter (fun plane -> Plane.reset plane ~server:coordinate) t.plane;
      Server.begin_repair t.servers.(coordinate) ctx ~op);
  op

(* The batched plane of a bare register: un-keyed frames, and each
   server's own completion state decides which queued entries live. *)
let install_plane config ~automata ~clients =
  let servers = config.Config.servers in
  let plane =
    Plane.create ~servers ~clients ~window:(Config.relay_window config)
      ~frames:
        { Plane.live =
            (fun ~server entry -> Server.gossip_live automata.(server) entry);
          direct = Fun.id;
          envelope = (fun entries msg -> Messages.Envelope { entries; msg });
          gossip = (fun entries -> Messages.Gossip { entries });
          batch = (fun relays -> Messages.Relay_batch { relays })
        }
  in
  Config.set_wire config
    { Config.wire_send =
        (fun ctx ~dst msg ->
          Plane.send plane ctx ~dst ~relay:(Plane.is_relay msg) msg);
      wire_gossip = (fun ctx entry -> Plane.gossip plane ctx ~peers:servers entry)
    };
  plane

let deploy ~engine ~params ?initial_value ?value_len ?error_prone
    ?disperse_step ?md_mode ?plane ?healing ~num_writers ~num_readers () =
  if num_writers < 0 || num_readers < 0 then
    invalid_arg "Deployment.deploy: negative client count";
  let n = Params.n params in
  let server_pids =
    Array.init n (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "server%d" i))
  in
  let config =
    Config.make ~params ~servers:server_pids ?initial_value ?value_len
      ?error_prone ?disperse_step ?md_mode ?plane
      ?client_retry:(Config.client_retry_for engine) ?healing ()
  in
  let servers =
    Array.init n (fun coordinate -> Server.create config ~coordinate)
  in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (Server.handler servers.(i)))
    server_pids;
  let writer_pids =
    Array.init num_writers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "writer%d" i))
  in
  let writers = Array.init num_writers (fun _ -> Writer.create config) in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (Writer.handler writers.(i)))
    writer_pids;
  let reader_pids =
    Array.init num_readers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "reader%d" i))
  in
  let readers = Array.init num_readers (fun _ -> Reader.create config) in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (Reader.handler readers.(i)))
    reader_pids;
  let plane =
    match Config.gossip_mode config with
    | `Coalesced ->
      Some
        (install_plane config ~automata:servers
           ~clients:(Array.append writer_pids reader_pids))
    | `Broadcast | `Off -> None
  in
  let t =
    { engine; config; servers; writers; writer_pids; readers; reader_pids;
      plane; repair_seq = ref 0 }
  in
  if config.Config.healing then begin
    (* Autonomous crash-repair hook, pulled by any server whose detector
       collects an f+1 suspicion quorum. Guards: the suspect must really
       be crashed (a partitioned server must not have its state wiped),
       and at most one launch per crash episode — the hook can be pulled
       by several servers at the same timestamp, before the restore event
       has dispatched, so "strictly later than the last launch" is the
       dedup (any strictly-later call for a still-crashed server is a new
       crash: the gated nemesis never crashes a repairing server). *)
    let launch_at =
      Array.make (Array.length server_pids) Float.neg_infinity
    in
    config.Config.auto_repair <-
      Some
        (fun coordinate ->
          if Engine.is_crashed engine server_pids.(coordinate) then begin
            let now = Engine.now engine in
            if now > launch_at.(coordinate) then begin
              launch_at.(coordinate) <- now;
              Probe.emit config.Config.probe
                (Probe.Auto_repair { server = coordinate; time = now });
              ignore (repair_server t ~coordinate ~at:now : int)
            end
          end);
    (* arm every server's detector and scrubber at time zero *)
    Array.iteri
      (fun i pid ->
        Engine.inject engine ~at:0.0 pid (fun ctx ->
            Server.start_healing servers.(i) ctx))
      server_pids
  end;
  t

let write t ~writer ~at ?on_done value =
  check_writer t writer ~where:"write";
  Engine.inject t.engine ~at t.writer_pids.(writer) (fun ctx ->
      ignore (Writer.invoke t.writers.(writer) ctx ~value ?on_done ()))

let read t ~reader ~at ?on_done () =
  check_reader t reader ~where:"read";
  Engine.inject t.engine ~at t.reader_pids.(reader) (fun ctx ->
      ignore (Reader.invoke t.readers.(reader) ctx ?on_done ()))

let crash_server t ~coordinate ~at =
  check_coordinate t coordinate ~where:"crash_server";
  (* the episode-start probe is emitted synchronously (never via an
     injected action) and only when healing is armed, so unhealed
     deployments keep both their event schedule and their probe stream
     unchanged *)
  if t.config.Config.healing then
    Probe.emit t.config.Config.probe
      (Probe.Crash_injected { server = coordinate; time = at });
  Engine.crash_at t.engine t.config.Config.servers.(coordinate) at

let corrupt_server t ~coordinate ~at =
  check_coordinate t coordinate ~where:"corrupt_server";
  let pid = t.config.Config.servers.(coordinate) in
  (* seeded from the schedule so the injected garbage is replayable;
     the probe is emitted inside the action (a rot on a crashed server
     is discarded along with the injection) *)
  let seed = (coordinate * 65_537) + int_of_float (at *. 1024.0) in
  Engine.inject t.engine ~at pid (fun ctx ->
      Probe.emit t.config.Config.probe
        (Probe.Rot_injected { server = coordinate; time = Engine.now_ctx ctx });
      Server.corrupt_disk t.servers.(coordinate) ~seed)

let set_error_window t ~coordinate window =
  check_coordinate t coordinate ~where:"set_error_window";
  Server.set_error_window t.servers.(coordinate) window

let scrub_clean t = Array.for_all Server.disk_ok t.servers

let all_live t =
  Array.for_all
    (fun pid -> not (Engine.is_crashed t.engine pid))
    t.config.Config.servers

(* All links between the isolated servers and every other process of
   the deployment (so partition and heal name the same link-set and
   traces satisfy the alternation axiom). *)
let isolation_links t ~coordinates ~where =
  let servers = t.config.Config.servers in
  Simnet.Link_faults.isolation
    ~isolated:
      (List.map
         (fun c ->
           check_coordinate t c ~where;
           servers.(c))
         coordinates)
    ~among:(Array.concat [ servers; t.writer_pids; t.reader_pids ])

let partition_servers t ~coordinates ~at =
  Engine.partition_at t.engine
    ~links:(isolation_links t ~coordinates ~where:"partition_servers")
    ~at

let heal_servers t ~coordinates ~at =
  Engine.heal_at t.engine
    ~links:(isolation_links t ~coordinates ~where:"heal_servers")
    ~at

let crash_writer t ~writer ~at =
  check_writer t writer ~where:"crash_writer";
  Engine.crash_at t.engine t.writer_pids.(writer) at

let crash_reader t ~reader ~at =
  check_reader t reader ~where:"crash_reader";
  Engine.crash_at t.engine t.reader_pids.(reader) at

let engine t = t.engine

let repairing t =
  Array.exists (fun s -> Server.repairing s) t.servers

let history t = t.config.Config.history
let cost t = t.config.Config.cost
let probe t = t.config.Config.probe
let config t = t.config
let server_pid t ~coordinate =
  check_coordinate t coordinate ~where:"server_pid";
  t.config.Config.servers.(coordinate)

let server t ~coordinate =
  check_coordinate t coordinate ~where:"server";
  t.servers.(coordinate)

let initial_value t = t.config.Config.initial_value

