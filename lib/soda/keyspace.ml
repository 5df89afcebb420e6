module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity

module Int_tbl = Protocol.Int_tbl

(* One logical key's [n,k] SODA instance: a derived configuration, the
   per-coordinate server automata, and the physical placement. *)
type instance = {
  key : int;
  iconfig : Config.t;
  iservers : Server.t array;  (* coordinate -> automaton *)
  iphys : int array;  (* coordinate -> physical server index *)
  (* key-scoped repair labels: repair_op_base + sequence, independent
     of every other key and of deployment creation order *)
  repair_seq : int ref
}

(* Pending cross-key gossip for one destination pid of one physical
   server: (enqueue time, entry), newest first, plus the
   staleness-timer armed flag. Enqueue times let the flush distinguish
   entries that have genuinely aged out from young riders — see
   [flush_outbox]. *)
type outbox = {
  mutable entries : (float * Messages.keyed_entry) list;
  mutable armed : bool
}

(* Buffered client-bound relays for one destination pid. *)
type relay_box = { mutable items : (int * Messages.t) list; mutable rarmed : bool }

(* The shared-plane state of one physical server process. Its boxes are
   indexed by destination pid and cover every pid the keyspace reserved
   (slot [d] of [p_outbox] is used when [d] is a server, of [p_relay]
   when [d] is a reader). A plane keeps no key index of its own: its
   automaton for a key is [inst.iservers.(c)], where [c] is [p_server]'s
   position in [inst.iphys]. *)
type plane = {
  p_pid : int;
  p_server : int;  (* physical server index *)
  p_outbox : outbox array;  (* dst pid -> pending cross-key gossip *)
  p_relay : relay_box array  (* dst client pid -> buffered relays *)
}

(* A client process: one pid, one protocol lane per key it has touched.
   Lanes are independent SODA clients, so one process can have
   operations in flight on many keys at once — well-formedness is per
   (client, key). [c_none] pads the lane table and is what a lookup of
   an unopened lane returns. *)
type 'lane client = {
  c_pid : int;
  c_lanes : 'lane Int_tbl.Map.t;  (* key -> lane *)
  c_none : 'lane
}

type t = {
  engine : Messages.t Engine.t;
  placement : Placement.t;
  template : Config.t;
  server_pids : int array;
  planes : plane array;
  (* pid -> its plane; [None] for client pids and pids reserved before
     [create]; pids reserved after [create] fall past the end *)
  plane_of_pid : plane option array;
  writer_clients : Writer.t client array;
  reader_clients : Reader.t client array;
  (* the one key index: key -> instance *)
  instances : instance Int_tbl.Map.t;
  (* what [lookup] returns for a key not materialized: key -1, no
     servers, so every plane sees it as hosted nowhere *)
  no_instance : instance;
  mutable keys_rev : int list  (* creation order, newest first *)
}

let repair_op_base = 1_000_000

let plane_at t pid =
  if pid < Array.length t.plane_of_pid then t.plane_of_pid.(pid) else None

let lookup t key = Int_tbl.Map.find t.instances key ~default:t.no_instance
let materialized inst = inst.key >= 0

let rec coordinate_from iphys server c =
  if c >= Array.length iphys then -1
  else if iphys.(c) = server then c
  else coordinate_from iphys server (c + 1)

(* [inst]'s coordinate on physical server [server], or -1 when none of
   its coordinates sits there. *)
let coordinate_on inst ~server = coordinate_from inst.iphys server 0

(* ------------------------------------------------------------------ *)
(* Shared-plane outboxes *)

(* An entry whose read already completed at the enqueuing instance's
   local server is dead. *)
let entry_live t plane (ke : Messages.keyed_entry) =
  let inst = lookup t ke.Messages.ke_key in
  let c = coordinate_on inst ~server:plane.p_server in
  c < 0 || Server.gossip_live inst.iservers.(c) ke.Messages.ke_entry

(* Unwrap the live entries of a newest-first outbox, oldest first. *)
let rec live_in_order t plane acc = function
  | [] -> acc
  | (_, ke) :: older ->
    live_in_order t plane (if entry_live t plane ke then ke :: acc else acc) older

(* Drain [dst]'s cross-key outbox, dropping dead entries, in enqueue
   order. *)
let take_outbox t plane ~dst =
  let box = plane.p_outbox.(dst) in
  match box.entries with
  | [] -> []
  | pending ->
    box.entries <- [];
    live_in_order t plane [] pending

(* Bounded-staleness flush of one destination's cross-key outbox. The
   pooled box holds entries of many ages, so the timer only forces a
   frame once the {e oldest} live entry has waited the full staleness
   bound — younger entries coalesce into that frame (or into envelope
   piggybacks) for free, but never cause frames of their own earlier
   than a per-key outbox would have. Most entries die (their read
   completes) before aging out, exactly as in a single-register plane. *)
let rec flush_outbox t ~staleness plane ctx ~dst =
  let box = plane.p_outbox.(dst) in
  box.armed <- false;
  let live = List.filter (fun (_, ke) -> entry_live t plane ke) box.entries in
  box.entries <- live;
  match List.rev live with
  | [] -> ()
  | (oldest, _) :: _ as in_order ->
    let now = Engine.now_ctx ctx in
    if now -. oldest +. 1e-9 >= staleness then begin
      box.entries <- [];
      Engine.send ctx ~dst
        (Messages.Keyed_gossip { kentries = List.map snd in_order })
    end
    else begin
      box.armed <- true;
      Engine.schedule_local ctx
        ~delay:(oldest +. staleness -. now)
        (fun () -> flush_outbox t ~staleness plane ctx ~dst)
    end

let flush_relays plane ctx ~dst =
  let box = plane.p_relay.(dst) in
  box.rarmed <- false;
  match List.rev box.items with
  | [] -> ()
  | [ (key, msg) ] ->
    box.items <- [];
    Engine.send ctx ~dst (Messages.Keyed { key; msg })
  | kitems ->
    box.items <- [];
    Engine.send ctx ~dst (Messages.Keyed_batch { kitems })

let is_client_relay = function
  | Messages.Relay _ | Messages.Relay_batch _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The wire: an instance's sends re-routed over the shared plane *)

let wire t inst =
  let key = inst.key in
  let staleness = Config.gossip_staleness in
  let relay_window = Config.relay_window t.template in
  let wire_send ctx ~dst msg =
    match plane_at t (Engine.self ctx) with
    | Some plane when Option.is_some (plane_at t dst) -> (
      (* server -> server: piggyback whatever cross-key gossip is
         pending for the destination *)
      match take_outbox t plane ~dst with
      | [] -> Engine.send ctx ~dst (Messages.Keyed { key; msg })
      | kentries ->
        Engine.send ctx ~dst (Messages.Keyed_envelope { kentries; key; msg }))
    | Some plane
      when is_client_relay msg
           && Option.is_some relay_window
           && dst < Array.length plane.p_relay ->
      (* server -> reader data: hold for the cross-key relay window (a
         pid reserved after [create] is no reader of this keyspace and
         gets its relay at once) *)
      let box = plane.p_relay.(dst) in
      box.items <- (key, msg) :: box.items;
      if not box.rarmed then begin
        box.rarmed <- true;
        match relay_window with
        | Some w ->
          Engine.schedule_local ctx ~delay:w (fun () ->
              flush_relays plane ctx ~dst)
        | None -> ()
      end
    | Some _ | None -> Engine.send ctx ~dst (Messages.Keyed { key; msg })
  in
  let wire_gossip ctx (entry : Messages.gossip_entry) =
    (* only a server instance gossips, and it runs on a plane pid *)
    let src = Engine.self ctx in
    let plane = Option.get (plane_at t src) in
    (* one (enqueue time, entry) pair, shared by every peer's outbox *)
    let item =
      (Engine.now_ctx ctx, { Messages.ke_key = key; ke_entry = entry })
    in
    let servers = inst.iconfig.Config.servers in
    for i = 0 to Array.length servers - 1 do
      let dst = servers.(i) in
      if dst <> src then begin
        let box = plane.p_outbox.(dst) in
        box.entries <- item :: box.entries;
        if not box.armed then begin
          box.armed <- true;
          Engine.schedule_local ctx ~delay:staleness (fun () ->
              flush_outbox t ~staleness plane ctx ~dst)
        end
      end
    done
  in
  { Config.wire_send; wire_gossip }

(* ------------------------------------------------------------------ *)
(* Instances *)

let instance t key =
  if key < 0 then invalid_arg "Keyspace: negative key";
  let found = lookup t key in
  if materialized found then found
  else begin
    let iphys = Placement.servers_of t.placement ~key in
    let pids = Array.map (fun s -> t.server_pids.(s)) iphys in
    let iconfig = Config.derive t.template ~servers:pids in
    let iservers =
      Array.init (Array.length pids) (fun c -> Server.create iconfig ~coordinate:c)
    in
    let inst = { key; iconfig; iservers; iphys; repair_seq = ref 0 } in
    Config.set_wire iconfig (wire t inst);
    Int_tbl.Map.replace t.instances key inst;
    t.keys_rev <- key :: t.keys_rev;
    inst
  end

let materialize t ~key = ignore (instance t key : instance)

let find_instance t key =
  if key < 0 then invalid_arg "Keyspace: negative key";
  let inst = lookup t key in
  if not (materialized inst) then
    invalid_arg (Printf.sprintf "Keyspace: unknown key %d" key);
  inst

(* ------------------------------------------------------------------ *)
(* Shared-plane handlers *)

(* Gossip for a key this keyspace has not materialized finds no
   automaton here and is dropped. *)
let rec apply_kentries t plane ctx = function
  | [] -> ()
  | (ke : Messages.keyed_entry) :: rest ->
    let inst = lookup t ke.Messages.ke_key in
    let c = coordinate_on inst ~server:plane.p_server in
    if c >= 0 then
      Server.apply_gossip_entry inst.iservers.(c) ctx ke.Messages.ke_entry;
    apply_kentries t plane ctx rest

let deliver_to_server t plane ctx ~src ~key msg =
  let inst = lookup t key in
  (* the first frame for a key this keyspace has not materialized yet
     (a client computed the placement independently) materializes it *)
  let inst = if materialized inst then inst else instance t key in
  let c = coordinate_on inst ~server:plane.p_server in
  if c < 0 then
    invalid_arg "Keyspace: frame for a key this server does not host";
  Server.handler inst.iservers.(c) ctx ~src msg

let plane_handler t plane ctx ~src msg =
  match msg with
  | Messages.Keyed { key; msg } -> deliver_to_server t plane ctx ~src ~key msg
  | Messages.Keyed_envelope { kentries; key; msg } ->
    apply_kentries t plane ctx kentries;
    deliver_to_server t plane ctx ~src ~key msg
  | Messages.Keyed_gossip { kentries } -> apply_kentries t plane ctx kentries
  | _ -> ()  (* un-keyed traffic never reaches a shared-plane server *)

let route lanes_handler client ctx ~src key m =
  let lane = Int_tbl.Map.find client.c_lanes key ~default:client.c_none in
  (* a reply for a lane this client never opened is stale *)
  if lane != client.c_none then lanes_handler lane ctx ~src m

let rec route_all lanes_handler client ctx ~src = function
  | [] -> ()
  | (key, m) :: rest ->
    route lanes_handler client ctx ~src key m;
    route_all lanes_handler client ctx ~src rest

let client_handler lanes_handler client ctx ~src msg =
  match msg with
  | Messages.Keyed { key; msg } -> route lanes_handler client ctx ~src key msg
  | Messages.Keyed_batch { kitems } ->
    route_all lanes_handler client ctx ~src kitems
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~engine ~placement ?value_len ?error_prone ?plane:plane_tuning
    ~num_writers ~num_readers () =
  if num_writers < 0 || num_readers < 0 then
    invalid_arg "Keyspace.create: negative client count";
  let topology = Placement.topology placement in
  let params = Placement.params placement in
  let m = Topology.servers topology in
  let server_pids =
    Array.init m (fun i -> Engine.reserve engine ~name:(Printf.sprintf "server%d" i))
  in
  let writer_pids =
    Array.init num_writers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "writer%d" i))
  in
  let reader_pids =
    Array.init num_readers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "reader%d" i))
  in
  (* client retries are armed exactly when sends are retransmitted,
     same rule as [Deployment.deploy] *)
  let client_retry =
    if Engine.reliable_transport engine then
      Some Config.default_client_retry_interval
    else None
  in
  let template =
    Config.make ~params
      ~servers:(Array.sub server_pids 0 (Params.n params))
      ?value_len ?error_prone ?plane:plane_tuning ?client_retry ()
  in
  (* encode the shared initial value once; every derived instance
     inherits the cache entry *)
  ignore (Config.encode template template.Config.initial_value
          : Erasure.Fragment.t array);
  (* every pid-indexed array spans the largest pid reserved above *)
  let span =
    1
    + List.fold_left (Array.fold_left max) 0
        [ server_pids; writer_pids; reader_pids ]
  in
  let planes =
    Array.init m (fun i ->
        { p_pid = server_pids.(i);
          p_server = i;
          p_outbox = Array.init span (fun _ -> { entries = []; armed = false });
          p_relay = Array.init span (fun _ -> { items = []; rarmed = false })
        })
  in
  let plane_of_pid = Array.make span None in
  Array.iter (fun p -> plane_of_pid.(p.p_pid) <- Some p) planes;
  let client make pid =
    let none = make template in
    { c_pid = pid; c_lanes = Int_tbl.Map.create ~dummy:none 0; c_none = none }
  in
  let no_instance =
    { key = -1;
      iconfig = template;
      iservers = [||];
      iphys = [||];
      repair_seq = ref 0
    }
  in
  let t =
    { engine;
      placement;
      template;
      server_pids;
      planes;
      plane_of_pid;
      writer_clients = Array.map (client Writer.create) writer_pids;
      reader_clients = Array.map (client Reader.create) reader_pids;
      instances = Int_tbl.Map.create ~dummy:no_instance 64;
      no_instance;
      keys_rev = []
    }
  in
  Array.iter
    (fun plane -> Engine.set_handler engine plane.p_pid (plane_handler t plane))
    planes;
  Array.iter
    (fun client ->
      Engine.set_handler engine client.c_pid (client_handler Writer.handler client))
    t.writer_clients;
  Array.iter
    (fun client ->
      Engine.set_handler engine client.c_pid (client_handler Reader.handler client))
    t.reader_clients;
  t

(* ------------------------------------------------------------------ *)
(* Operations *)

(* [client]'s lane for [key], opened by [make] on first use. *)
let lane t client key ~make =
  let found = Int_tbl.Map.find client.c_lanes key ~default:client.c_none in
  if found != client.c_none then found
  else begin
    let lane = make (instance t key).iconfig in
    Int_tbl.Map.replace client.c_lanes key lane;
    lane
  end

(* Checked before the lane or the key's instance is touched, so a bad
   client index leaves the engine untouched. *)
let client_of clients i ~where =
  if i < 0 || i >= Array.length clients then
    invalid_arg (Printf.sprintf "Keyspace.%s out of range" where);
  clients.(i)

let write t ~key ~writer ~at ?on_done value =
  let client = client_of t.writer_clients writer ~where:"write: writer" in
  let lane = lane t client key ~make:Writer.create in
  Engine.inject t.engine ~at client.c_pid (fun ctx ->
      ignore (Writer.invoke lane ctx ~value ?on_done () : int))

let read t ~key ~reader ~at ?on_done () =
  let client = client_of t.reader_clients reader ~where:"read: reader" in
  let lane = lane t client key ~make:Reader.create in
  Engine.inject t.engine ~at client.c_pid (fun ctx ->
      ignore (Reader.invoke lane ctx ?on_done () : int))

(* ------------------------------------------------------------------ *)
(* Observation *)

let keys t = List.sort Int.compare t.keys_rev
let topology t = Placement.topology t.placement
let config t ~key = (find_instance t key).iconfig
let history t ~key = (find_instance t key).iconfig.Config.history
let cost t ~key = (find_instance t key).iconfig.Config.cost
let probe t ~key = (find_instance t key).iconfig.Config.probe
(* placement is a pure function of the key, so answer without
   materializing the instance *)
let placement_of t ~key =
  if key < 0 then invalid_arg "Keyspace: negative key";
  let inst = lookup t key in
  if materialized inst then Array.copy inst.iphys
  else Placement.servers_of t.placement ~key

let fold_instances t f acc =
  List.fold_left (fun acc key -> f acc (lookup t key)) acc (keys t)

let all_complete t =
  fold_instances t
    (fun acc inst -> acc && History.all_complete inst.iconfig.Config.history)
    true

let check_atomicity t =
  let rec go = function
    | [] -> Ok ()
    | key :: rest -> (
      let inst = lookup t key in
      match
        Atomicity.check_tagged
          ~initial_value:inst.iconfig.Config.initial_value
          (History.records inst.iconfig.Config.history)
      with
      | Ok () -> go rest
      | Error v -> Error (key, v))
  in
  go (keys t)

let repairing t =
  fold_instances t
    (fun acc inst -> acc || Array.exists Server.repairing inst.iservers)
    false

let total_storage t =
  fold_instances t
    (fun acc inst -> acc +. Cost.max_total_storage inst.iconfig.Config.cost)
    0.

(* ------------------------------------------------------------------ *)
(* Fault injection — machine-level: faults hit a physical server and
   with it every key instance it hosts *)

let check_server t server ~where =
  if server < 0 || server >= Array.length t.server_pids then
    invalid_arg (Printf.sprintf "Keyspace.%s: server index out of range" where)

let crash_server t ~server ~at =
  check_server t server ~where:"crash_server";
  Engine.crash_at t.engine t.server_pids.(server) at

(* Keys hosted by one physical server, ascending — the deterministic
   order repairs and corruptions sweep in. A cold path (repair and
   corruption only), so it scans the whole key index. *)
let hosted_keys t ~server =
  let keys =
    Int_tbl.Map.fold
      (fun key inst acc ->
        if coordinate_on inst ~server >= 0 then key :: acc else acc)
      t.instances []
  in
  List.sort Int.compare keys

let repair_server t ~server ~at =
  check_server t server ~where:"repair_server";
  let pid = t.server_pids.(server) in
  Engine.restore_at t.engine pid at;
  (* the injection is pushed after the restore event at the same
     timestamp, so it runs on the freshly restored process *)
  Engine.inject t.engine ~at pid (fun ctx ->
      (* the crash lost every armed flush timer with its closures;
         pending outbox/relay state is volatile and starts empty *)
      let plane = t.planes.(server) in
      Array.iter
        (fun box ->
          box.entries <- [];
          box.armed <- false)
        plane.p_outbox;
      Array.iter
        (fun box ->
          box.items <- [];
          box.rarmed <- false)
        plane.p_relay;
      List.iter
        (fun key ->
          let inst = lookup t key in
          let c = coordinate_on inst ~server in
          let op = repair_op_base + !(inst.repair_seq) in
          incr inst.repair_seq;
          Server.begin_repair inst.iservers.(c) ctx ~op)
        (hosted_keys t ~server))

let corrupt_server t ~server ~at =
  check_server t server ~where:"corrupt_server";
  let pid = t.server_pids.(server) in
  Engine.inject t.engine ~at pid (fun ctx ->
      List.iter
        (fun key ->
          let inst = lookup t key in
          let c = coordinate_on inst ~server in
          (* seeded from the schedule and the key so the injected
             garbage is replayable and differs across instances *)
          let seed =
            (key * 514_229) + (c * 65_537) + int_of_float (at *. 1024.0)
          in
          Probe.emit inst.iconfig.Config.probe
            (Probe.Rot_injected { server = c; time = Engine.now_ctx ctx });
          Server.corrupt_disk inst.iservers.(c) ~seed)
        (hosted_keys t ~server))

(* All links between a server group and every other process of the
   keyspace, both directions, in a deterministic order (so partition
   and heal name the same link-set). *)
let isolation_links t ~servers =
  let m = Array.length t.server_pids in
  let isolated = Array.make m false in
  List.iter
    (fun s ->
      check_server t s ~where:"partition";
      isolated.(s) <- true)
    servers;
  let inside =
    List.map (fun s -> t.server_pids.(s)) (List.sort_uniq Int.compare servers)
  in
  let outside = ref [] in
  Array.iteri
    (fun s pid -> if not isolated.(s) then outside := pid :: !outside)
    t.server_pids;
  Array.iter (fun c -> outside := c.c_pid :: !outside) t.writer_clients;
  Array.iter (fun c -> outside := c.c_pid :: !outside) t.reader_clients;
  let outside = List.rev !outside in
  List.concat_map
    (fun inner ->
      List.concat_map (fun outer -> [ (inner, outer); (outer, inner) ]) outside)
    inside

let partition_servers t ~servers ~at =
  Engine.partition_at t.engine ~links:(isolation_links t ~servers) ~at

let heal_servers t ~servers ~at =
  Engine.heal_at t.engine ~links:(isolation_links t ~servers) ~at

let domain_servers t ~domain = Topology.domain_members (topology t) domain

let crash_domain t ~domain ~at =
  List.iter (fun s -> crash_server t ~server:s ~at) (domain_servers t ~domain)

let partition_domain t ~domain ~at =
  partition_servers t ~servers:(domain_servers t ~domain) ~at

let heal_domain t ~domain ~at =
  heal_servers t ~servers:(domain_servers t ~domain) ~at
