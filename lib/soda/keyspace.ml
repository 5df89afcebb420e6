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
  (* key-scoped repair labels ([Server.repair_op] of this sequence),
     independent of every other key and of deployment creation order *)
  repair_seq : int ref
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
  (* the shared plane of every server process. Its slot for a server is
     the physical server index: a process keeps no key index of its own,
     and its automaton for a key is [inst.iservers.(c)], where [c] is
     the server's position in [inst.iphys]. *)
  plane : (Messages.keyed_entry, int * Messages.t) Plane.t;
  writer_clients : Writer.t client array;
  reader_clients : Reader.t client array;
  (* the one key index: key -> instance *)
  instances : instance Int_tbl.Map.t;
  (* what [lookup] returns for a key not materialized: key -1, no
     servers, so every plane sees it as hosted nowhere *)
  no_instance : instance;
  mutable keys_rev : int list  (* creation order, newest first *)
}

let lookup t key = Int_tbl.Map.find t.instances key ~default:t.no_instance
let materialized inst = inst.key >= 0

(* Annotated so the scan compares integers inline: it runs on every
   keyed delivery, gossip entry and gossip liveness test. *)
let rec coordinate_from (iphys : int array) (server : int) c =
  if c >= Array.length iphys then -1
  else if iphys.(c) = server then c
  else coordinate_from iphys server (c + 1)

(* [inst]'s coordinate on physical server [server], or -1 when none of
   its coordinates sits there. *)
let coordinate_on inst ~server = coordinate_from inst.iphys server 0

(* ------------------------------------------------------------------ *)
(* The wire: an instance's sends re-routed over the shared plane *)

let wire t inst =
  let key = inst.key in
  let peers = inst.iconfig.Config.servers in
  { Config.wire_send =
      (fun ctx ~dst msg ->
        Plane.send t.plane ctx ~dst ~relay:(Plane.is_relay msg) (key, msg));
    wire_gossip =
      (fun ctx entry ->
        Plane.gossip t.plane ctx ~peers
          { Messages.ke_key = key; ke_entry = entry })
  }

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
let rec apply_kentries t server ctx = function
  | [] -> ()
  | (ke : Messages.keyed_entry) :: rest ->
    let inst = lookup t ke.Messages.ke_key in
    let c = coordinate_on inst ~server in
    if c >= 0 then
      Server.apply_gossip_entry inst.iservers.(c) ctx ke.Messages.ke_entry;
    apply_kentries t server ctx rest

(* Clients materialize a key before they send on it, and servers frame
   only for their own instances, so a frame for a key not materialized
   here finds no coordinate and is refused. *)
let deliver_to_server t server ctx ~src ~key msg =
  let inst = lookup t key in
  let c = coordinate_on inst ~server in
  if c < 0 then
    invalid_arg "Keyspace: frame for a key this server does not host";
  Server.handler inst.iservers.(c) ctx ~src msg

let plane_handler t server ctx ~src msg =
  match msg with
  | Messages.Keyed { key; msg } -> deliver_to_server t server ctx ~src ~key msg
  | Messages.Keyed_envelope { kentries; key; msg } ->
    apply_kentries t server ctx kentries;
    deliver_to_server t server ctx ~src ~key msg
  | Messages.Keyed_gossip { kentries } -> apply_kentries t server ctx kentries
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

let create ~engine ~placement ?value_len ?plane:plane_tuning
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
  let template =
    Config.make ~params
      ~servers:(Array.sub server_pids 0 (Params.n params))
      ?value_len ?plane:plane_tuning
      ?client_retry:(Config.client_retry_for engine) ()
  in
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
  let instances = Int_tbl.Map.create ~dummy:no_instance 64 in
  (* an entry whose read already completed at the queuing instance's
     automaton on this server is dead *)
  let live ~server (ke : Messages.keyed_entry) =
    let inst = Int_tbl.Map.find instances ke.Messages.ke_key ~default:no_instance in
    let c = coordinate_on inst ~server in
    c < 0 || Server.gossip_live inst.iservers.(c) ke.Messages.ke_entry
  in
  let plane =
    Plane.create ~servers:server_pids
      ~clients:(Array.append writer_pids reader_pids)
      ~window:(Config.relay_window template)
      ~frames:
        { Plane.live;
          direct = (fun (key, msg) -> Messages.Keyed { key; msg });
          envelope =
            (fun kentries (key, msg) ->
              Messages.Keyed_envelope { kentries; key; msg });
          gossip = (fun kentries -> Messages.Keyed_gossip { kentries });
          batch = (fun kitems -> Messages.Keyed_batch { kitems })
        }
  in
  let t =
    { engine;
      placement;
      template;
      server_pids;
      plane;
      writer_clients = Array.map (client Writer.create) writer_pids;
      reader_clients = Array.map (client Reader.create) reader_pids;
      instances;
      no_instance;
      keys_rev = []
    }
  in
  Array.iteri
    (fun server pid -> Engine.set_handler engine pid (plane_handler t server))
    server_pids;
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
      Plane.reset t.plane ~server;
      List.iter
        (fun key ->
          let inst = lookup t key in
          let c = coordinate_on inst ~server in
          let op = Server.repair_op ~seq:!(inst.repair_seq) in
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
   keyspace (so partition and heal name the same link-set). *)
let isolation_links t ~servers =
  let pids clients = Array.map (fun c -> c.c_pid) clients in
  Simnet.Link_faults.isolation
    ~isolated:
      (List.map
         (fun s ->
           check_server t s ~where:"partition";
           t.server_pids.(s))
         servers)
    ~among:
      (Array.concat
         [ t.server_pids; pids t.writer_clients; pids t.reader_clients ])

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
