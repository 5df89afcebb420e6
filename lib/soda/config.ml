module Params = Protocol.Params
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module History = Protocol.History
module Mds = Erasure.Mds

type plane = Paper | Batched | Gossip_off

let gossip_staleness = 25.0
let default_plane = Paper
let batched_plane = Batched
let gossip_off_plane = Gossip_off

type heal_stats = { mutable heartbeats_sent : int; mutable scrub_sweeps : int }

let heal_stats_create () = { heartbeats_sent = 0; scrub_sweeps = 0 }

(* Pluggable message plane: a batched-plane deployment, and every
   keyspace instance, re-routes its sends through a [Plane] by
   installing a wire. [wire_send] replaces every protocol-level
   [Engine.send]; [wire_gossip] takes every deferred READ-DISPERSE
   entry for coalescing. *)
type wire = {
  wire_send : Messages.t Simnet.Engine.context -> dst:int -> Messages.t -> unit;
  wire_gossip :
    Messages.t Simnet.Engine.context -> Messages.gossip_entry -> unit
}

type memo_entry = {
  writer : int;
  mutable value : bytes;
  mutable fragments : Erasure.Fragment.t array
}

type t = {
  params : Params.t;
  code : Mds.t;
  decode_threshold : int;
  servers : int array;
  initial_value : bytes;
  (* [Mds.encode code initial_value], encoded once in [make] and shared
     by every [derive]d instance. *)
  initial_fragments : Erasure.Fragment.t array;
  error_prone : bool array;
  disperse_step : float;
  md_mode : [ `Chained | `Direct ];
  plane : plane;
  client_retry : float option;
  healing : bool;
  heal_stats : heal_stats;
  (* Slot the deployment fills in after construction: servers call it
     (coordinate of the suspect) when the failure detector reaches a
     vote quorum, and the deployment decides whether an autonomous
     crash-repair is warranted (crashed? budget? already pending?). *)
  mutable auto_repair : (int -> unit) option;
  cost : Cost.t;
  probe : Probe.t;
  history : History.t;
  (* Per-writer encode memo: the last value each writer dispersed here
     and its fragments. Under chained MD-VALUE dispersal every member of
     D encodes the same value object (the simulator shares the bytes
     across deliveries), so the memo turns d encodes per write into one,
     even while other writers' dispersals interleave. Safe because
     values are never mutated after a write invokes, and fragments are
     themselves treated as immutable (corruption copies — see
     Fragment.corrupt). *)
  mutable memo : memo_entry list;
  (* [None] (the paper's plane on a bare deployment): sends go
     straight to the engine. *)
  mutable wire : wire option
}

let send t ctx ~dst msg =
  match t.wire with
  | None -> Simnet.Engine.send ctx ~dst msg
  | Some w -> w.wire_send ctx ~dst msg

let send_coordinates t ctx ~from msg =
  let upto = Array.length t.servers in
  match t.wire with
  | None -> Simnet.Engine.send_many ctx ~dsts:t.servers ~from ~upto msg
  | Some w ->
    for i = from to upto - 1 do
      w.wire_send ctx ~dst:t.servers.(i) msg
    done

let gossip t ctx entry =
  match t.wire with
  | Some w -> w.wire_gossip ctx entry
  | None -> invalid_arg "Config.gossip: coalesced gossip needs a wire"

let set_wire t wire =
  match t.wire with
  | Some _ -> invalid_arg "Config.set_wire: wire already installed"
  | None -> t.wire <- Some wire

let gossip_mode t =
  match t.plane with
  | Paper -> `Broadcast
  | Batched -> `Coalesced
  | Gossip_off -> `Off

let relay_window t =
  match t.plane with Batched -> Some 0.25 | Paper | Gossip_off -> None

let meta_stagger t =
  match t.plane with Batched -> Some 4.0 | Paper | Gossip_off -> None

(* A top-level scan, like [index_of] below: one entry per writer the
   configuration serves, and neither a closure nor an option per
   lookup. *)
let rec memo_find writer = function
  | [] -> raise Not_found
  | e :: rest -> if e.writer = writer then e else memo_find writer rest

let encode t ~writer value =
  match memo_find writer t.memo with
  (* P1: physical equality is the memo key by design (see the field
     comment above) — structural comparison of the payload bytes would
     defeat the point. *)
  | e
    when ((e.value == value)
          [@lint.allow
            "P1: physical equality is the memo key by design — structural \
             comparison of the payload bytes would defeat the point"]) ->
    e.fragments
  | e ->
    let fragments = Mds.encode t.code value in
    e.value <- value;
    e.fragments <- fragments;
    fragments
  | exception Not_found ->
    let fragments = Mds.encode t.code value in
    t.memo <- { writer; value; fragments } :: t.memo;
    fragments

let make ~params ~servers ?(initial_value = Bytes.empty) ?value_len
    ?(error_prone = []) ?(disperse_step = 0.001) ?(md_mode = `Chained)
    ?(plane = default_plane) ?client_retry ?(healing = false) () =
  let n = Params.n params in
  if Array.length servers <> n then
    invalid_arg "Config.make: need exactly n server pids";
  let e = Params.e params in
  let k = Params.k_soda params in
  (* one codec family for every fault model: with e = 0 the reader
     decodes exactly k fragments, where BCH decoding is erasure-only;
     GF(2^16) symbols once n exceeds 255 fragments *)
  let code = if n <= 255 then Mds.rs_bch ~n ~k else Mds.rs_bch16 ~n ~k in
  let error_flags = Array.make n false in
  List.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg "Config.make: error_prone coordinate out of range";
      error_flags.(c) <- true)
    error_prone;
  let flagged = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 error_flags in
  if flagged > e then
    invalid_arg
      (Printf.sprintf
         "Config.make: %d error-prone servers but the system tolerates e=%d"
         flagged e);
  let value_len =
    match value_len with
    | Some l -> l
    | None ->
      let l = Bytes.length initial_value in
      if l > 0 then l else 1024
  in
  { params;
    code;
    decode_threshold = k + (2 * e);
    servers;
    initial_value;
    initial_fragments = Mds.encode code initial_value;
    error_prone = error_flags;
    disperse_step;
    md_mode;
    plane;
    client_retry;
    healing;
    heal_stats = heal_stats_create ();
    auto_repair = None;
    cost = Cost.create ~value_len;
    probe = Probe.create ();
    history = History.create ();
    memo = [];
    wire = None
  }

(* Per-key instance configuration of a keyspace: same protocol
   parameters, codec, plane and initial fragments as the template (so
   the shared initial value is encoded once across all keys), but an
   empty encode memo, fresh instrumentation ledgers and its own server
   pids. Healing and auto-repair stay off — the keyspace owns fault
   handling. *)
let derive t ~servers =
  if Array.length servers <> Params.n t.params then
    invalid_arg "Config.derive: need exactly n server pids";
  { t with
    servers;
    healing = false;
    heal_stats = heal_stats_create ();
    auto_repair = None;
    cost = Cost.create ~value_len:(Cost.value_len t.cost);
    probe = Probe.create ();
    history = History.create ();
    memo = [];
    wire = None
  }

(* Client retries are armed exactly when sends are retransmitted: over
   the raw transport they could not mask losses anyway, and leaving them
   off keeps raw runs identical to the paper's retry-free clients. *)
let client_retry_for engine =
  if Simnet.Engine.reliable_transport engine then Some 80.0 else None

(* A top-level scan, stopping at the first match: this runs on every
   staggered MD-META duplicate and every repair or scrub reply, so it
   allocates no closure. The annotation keeps the comparison an integer
   one (a generic scan compares with [caml_equal] and checks every read
   for a float array). *)
let rec index_of (servers : int array) (pid : int) i =
  if i >= Array.length servers then raise Not_found
  else if servers.(i) = pid then i
  else index_of servers pid (i + 1)

let coordinate_of t ~pid = index_of t.servers pid 0

let d_size t = Params.f t.params + 1
