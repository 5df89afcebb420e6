module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity

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

(* The shared-plane state of one physical server process. *)
type plane = {
  p_pid : int;
  (* key -> this server's automaton for that key's instance *)
  p_states : (int, Server.t) Hashtbl.t;
  (* dst pid -> pending cross-key gossip *)
  p_outbox : (int, outbox) Hashtbl.t;
  (* dst client pid -> buffered relays across keys *)
  p_relay : (int, relay_box) Hashtbl.t
}

(* A client process: one pid, one protocol lane per key it has touched.
   Lanes are independent SODA clients, so one process can have
   operations in flight on many keys at once — well-formedness is per
   (client, key). *)
type 'lane client = { c_pid : int; c_lanes : (int, 'lane) Hashtbl.t }

type t = {
  engine : Messages.t Engine.t;
  placement : Placement.t;
  template : Config.t;
  server_pids : int array;
  planes : plane array;
  plane_of_pid : (int, plane) Hashtbl.t;
  writer_clients : Writer.t client array;
  reader_clients : Reader.t client array;
  instances : (int, instance) Hashtbl.t;
  mutable keys_rev : int list  (* creation order, newest first *)
}

let repair_op_base = 1_000_000

(* ------------------------------------------------------------------ *)
(* Shared-plane outboxes *)

let outbox_for plane ~dst =
  match Hashtbl.find_opt plane.p_outbox dst with
  | Some box -> box
  | None ->
    let box = { entries = []; armed = false } in
    Hashtbl.replace plane.p_outbox dst box;
    box

let entry_live plane ((_, ke) : float * Messages.keyed_entry) =
  match Hashtbl.find_opt plane.p_states ke.Messages.ke_key with
  | Some state -> Server.gossip_live state ke.Messages.ke_entry
  | None -> true

(* Drain [dst]'s cross-key outbox, dropping entries whose read has
   already completed at the enqueuing instance's local server, in
   enqueue order. *)
let take_outbox plane ~dst =
  match Hashtbl.find_opt plane.p_outbox dst with
  | None -> []
  | Some box ->
    (match box.entries with
    | [] -> []
    | pending ->
      box.entries <- [];
      List.rev_map snd (List.filter (entry_live plane) pending))

(* Bounded-staleness flush of one destination's cross-key outbox. The
   pooled box holds entries of many ages, so the timer only forces a
   frame once the {e oldest} live entry has waited the full staleness
   bound — younger entries coalesce into that frame (or into envelope
   piggybacks) for free, but never cause frames of their own earlier
   than a per-key outbox would have. Most entries die (their read
   completes) before aging out, exactly as in a single-register plane. *)
let rec flush_outbox ~staleness plane ctx ~dst =
  match Hashtbl.find_opt plane.p_outbox dst with
  | None -> ()
  | Some box -> (
    box.armed <- false;
    let live = List.filter (entry_live plane) box.entries in
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
          (fun () -> flush_outbox ~staleness plane ctx ~dst)
      end)

let flush_relays plane ctx ~dst =
  match Hashtbl.find_opt plane.p_relay dst with
  | None -> ()
  | Some box -> (
    box.rarmed <- false;
    match List.rev box.items with
    | [] -> ()
    | [ (key, msg) ] ->
      box.items <- [];
      Engine.send ctx ~dst (Messages.Keyed { key; msg })
    | kitems ->
      box.items <- [];
      Engine.send ctx ~dst (Messages.Keyed_batch { kitems }))

let is_client_relay = function
  | Messages.Relay _ | Messages.Relay_batch _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The wire: an instance's sends re-routed over the shared plane *)

let wire t inst =
  let key = inst.key in
  let staleness = Config.gossip_staleness in
  let relay_window = t.template.Config.plane.Config.relay_batch in
  let wire_send ctx ~dst msg =
    let src = Engine.self ctx in
    match Hashtbl.find_opt t.plane_of_pid src with
    | Some plane when Hashtbl.mem t.plane_of_pid dst -> (
      (* server -> server: piggyback whatever cross-key gossip is
         pending for the destination *)
      match take_outbox plane ~dst with
      | [] -> Engine.send ctx ~dst (Messages.Keyed { key; msg })
      | kentries ->
        Engine.send ctx ~dst (Messages.Keyed_envelope { kentries; key; msg }))
    | Some plane when is_client_relay msg && Option.is_some relay_window ->
      (* server -> reader data: hold for the cross-key relay window *)
      let box =
        match Hashtbl.find_opt plane.p_relay dst with
        | Some box -> box
        | None ->
          let box = { items = []; rarmed = false } in
          Hashtbl.replace plane.p_relay dst box;
          box
      in
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
    let src = Engine.self ctx in
    match Hashtbl.find_opt t.plane_of_pid src with
    | None -> false  (* not a shared-plane process: keep the per-key outbox *)
    | Some plane ->
      let ke = { Messages.ke_key = key; ke_entry = entry } in
      let now = Engine.now_ctx ctx in
      Array.iter
        (fun dst ->
          if dst <> src then begin
            let box = outbox_for plane ~dst in
            box.entries <- (now, ke) :: box.entries;
            if not box.armed then begin
              box.armed <- true;
              Engine.schedule_local ctx ~delay:staleness (fun () ->
                  flush_outbox ~staleness plane ctx ~dst)
            end
          end)
        inst.iconfig.Config.servers;
      true
  in
  { Config.wire_send; wire_gossip = Some wire_gossip }

(* ------------------------------------------------------------------ *)
(* Instances *)

let instance t key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> inst
  | None ->
    if key < 0 then invalid_arg "Keyspace: negative key";
    let iphys = Placement.servers_of t.placement ~key in
    let pids = Array.map (fun s -> t.server_pids.(s)) iphys in
    let iconfig = Config.derive t.template ~servers:pids in
    (* instances relay through the shared plane, which batches
       client-bound frames across keys under the template's relay
       window — so the instance itself must not also hold them back
       (double-buffering would compound the delay, stretch registration
       windows and generate extra traffic, not less) *)
    let iconfig =
      { iconfig with
        Config.plane = { iconfig.Config.plane with Config.relay_batch = None }
      }
    in
    let iservers =
      Array.init (Array.length pids) (fun c -> Server.create iconfig ~coordinate:c)
    in
    let inst = { key; iconfig; iservers; iphys; repair_seq = ref 0 } in
    Config.set_wire iconfig (wire t inst);
    Array.iteri
      (fun c s -> Hashtbl.replace t.planes.(iphys.(c)).p_states key s)
      iservers;
    Hashtbl.replace t.instances key inst;
    t.keys_rev <- key :: t.keys_rev;
    inst

let materialize t ~key = ignore (instance t key : instance)

let find_instance t key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> inst
  | None -> invalid_arg (Printf.sprintf "Keyspace: unknown key %d" key)

(* ------------------------------------------------------------------ *)
(* Shared-plane handlers *)

let apply_kentries plane ctx kentries =
  List.iter
    (fun (ke : Messages.keyed_entry) ->
      match Hashtbl.find_opt plane.p_states ke.Messages.ke_key with
      | Some state -> Server.apply_gossip_entry state ctx ke.Messages.ke_entry
      | None -> ())
    kentries

let deliver_to_server t plane ctx ~src ~key msg =
  let state =
    match Hashtbl.find_opt plane.p_states key with
    | Some state -> state
    | None ->
      (* first frame for a key this keyspace has not materialized yet
         (a client computed the placement independently) *)
      ignore (instance t key : instance);
      Hashtbl.find plane.p_states key
  in
  Server.handler state ctx ~src msg

let plane_handler t plane ctx ~src msg =
  match msg with
  | Messages.Keyed { key; msg } -> deliver_to_server t plane ctx ~src ~key msg
  | Messages.Keyed_envelope { kentries; key; msg } ->
    apply_kentries plane ctx kentries;
    deliver_to_server t plane ctx ~src ~key msg
  | Messages.Keyed_gossip { kentries } -> apply_kentries plane ctx kentries
  | _ -> ()  (* un-keyed traffic never reaches a shared-plane server *)

let client_handler lanes_handler client ctx ~src msg =
  let route key m =
    match Hashtbl.find_opt client.c_lanes key with
    | Some lane -> lanes_handler lane ctx ~src m
    | None -> ()  (* reply for a lane this client never opened: stale *)
  in
  match msg with
  | Messages.Keyed { key; msg } -> route key msg
  | Messages.Keyed_batch { kitems } ->
    List.iter (fun (key, m) -> route key m) kitems
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~engine ~placement ?initial_value ?value_len ?error_prone
    ?disperse_step ?md_mode ?plane:plane_tuning ~num_writers ~num_readers () =
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
      ?initial_value ?value_len ?error_prone ?disperse_step ?md_mode
      ?plane:plane_tuning ?client_retry ()
  in
  (* encode the shared initial value once; every derived instance
     inherits the cache entry *)
  ignore (Config.encode template template.Config.initial_value
          : Erasure.Fragment.t array);
  let planes =
    Array.init m (fun i ->
        { p_pid = server_pids.(i);
          p_states = Hashtbl.create 16;
          p_outbox = Hashtbl.create 8;
          p_relay = Hashtbl.create 8
        })
  in
  let plane_of_pid = Hashtbl.create (2 * m) in
  Array.iter (fun p -> Hashtbl.replace plane_of_pid p.p_pid p) planes;
  let t =
    { engine;
      placement;
      template;
      server_pids;
      planes;
      plane_of_pid;
      writer_clients =
        Array.map (fun pid -> { c_pid = pid; c_lanes = Hashtbl.create 8 }) writer_pids;
      reader_clients =
        Array.map (fun pid -> { c_pid = pid; c_lanes = Hashtbl.create 8 }) reader_pids;
      instances = Hashtbl.create 64;
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

let writer_lane t client key =
  match Hashtbl.find_opt client.c_lanes key with
  | Some lane -> lane
  | None ->
    let inst = instance t key in
    let lane = Writer.create inst.iconfig in
    Hashtbl.replace client.c_lanes key lane;
    lane

let reader_lane t client key =
  match Hashtbl.find_opt client.c_lanes key with
  | Some lane -> lane
  | None ->
    let inst = instance t key in
    let lane = Reader.create inst.iconfig in
    Hashtbl.replace client.c_lanes key lane;
    lane

let write t ~key ~writer ~at ?on_done value =
  let client = t.writer_clients.(writer) in
  let lane = writer_lane t client key in
  Engine.inject t.engine ~at client.c_pid (fun ctx ->
      ignore (Writer.invoke lane ctx ~value ?on_done () : int))

let read t ~key ~reader ~at ?on_done () =
  let client = t.reader_clients.(reader) in
  let lane = reader_lane t client key in
  Engine.inject t.engine ~at client.c_pid (fun ctx ->
      ignore (Reader.invoke lane ctx ?on_done () : int))

(* ------------------------------------------------------------------ *)
(* Observation *)

let keys t = List.sort Int.compare t.keys_rev
let engine t = t.engine
let placement t = t.placement
let topology t = Placement.topology t.placement
let params t = t.template.Config.params
let initial_value t = t.template.Config.initial_value
let num_writers t = Array.length t.writer_clients
let num_readers t = Array.length t.reader_clients
let server_pid t ~server = t.server_pids.(server)
let writer_pid t ~writer = t.writer_clients.(writer).c_pid
let reader_pid t ~reader = t.reader_clients.(reader).c_pid
let config t ~key = (find_instance t key).iconfig
let history t ~key = (find_instance t key).iconfig.Config.history
let cost t ~key = (find_instance t key).iconfig.Config.cost
let probe t ~key = (find_instance t key).iconfig.Config.probe
(* placement is a pure function of the key, so answer without
   materializing the instance *)
let placement_of t ~key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> Array.copy inst.iphys
  | None ->
    if key < 0 then invalid_arg "Keyspace: negative key";
    Placement.servers_of t.placement ~key

let fold_instances t f acc =
  List.fold_left (fun acc key -> f acc (Hashtbl.find t.instances key)) acc (keys t)

let all_complete t =
  fold_instances t
    (fun acc inst -> acc && History.all_complete inst.iconfig.Config.history)
    true

let check_atomicity t =
  let rec go = function
    | [] -> Ok ()
    | key :: rest -> (
      let inst = Hashtbl.find t.instances key in
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

let scrub_clean t =
  fold_instances t
    (fun acc inst -> acc && Array.for_all Server.disk_ok inst.iservers)
    true

let total_storage t =
  fold_instances t
    (fun acc inst -> acc +. Cost.max_total_storage inst.iconfig.Config.cost)
    0.

let all_live t =
  Array.for_all (fun pid -> not (Engine.is_crashed t.engine pid)) t.server_pids

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
   order repairs and corruptions sweep in. *)
let[@lint.allow
     "D3: the fold's arbitrary order is erased by the sort before the \
      list can reach a caller"] hosted_keys t ~server =
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.planes.(server).p_states [] in
  List.sort Int.compare keys

let coordinate_on inst ~server =
  let found = ref (-1) in
  Array.iteri (fun c s -> if s = server then found := c) inst.iphys;
  assert (!found >= 0);
  !found

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
      Hashtbl.reset plane.p_outbox;
      Hashtbl.reset plane.p_relay;
      List.iter
        (fun key ->
          let inst = Hashtbl.find t.instances key in
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
          let inst = Hashtbl.find t.instances key in
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

let repair_domain t ~domain ~at =
  List.iter (fun s -> repair_server t ~server:s ~at) (domain_servers t ~domain)

let partition_domain t ~domain ~at =
  partition_servers t ~servers:(domain_servers t ~domain) ~at

let heal_domain t ~domain ~at =
  heal_servers t ~servers:(domain_servers t ~domain) ~at
