(** Static configuration of one SODA register: a {!Deployment}, or
    one key's instance inside a {!Keyspace} (see {!derive}).

    Shared read-only by every automaton of the register; also carries
    the (mutable) instrumentation sinks. The self-healing plane is one
    on/off value ({!field-healing}); its cadences are constants of
    {!Server}. *)

module Params = Protocol.Params
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module History = Protocol.History
module Mds = Erasure.Mds

(** Message plane: how READ-DISPERSE gossip, relays and MD-META
    forwards are put on the wire. One of three presets. Purely an
    optimization layer — every preset but {!gossip_off_plane} delivers
    the same protocol events, so safety (atomicity) is untouched; see
    "Batched message plane" in DESIGN.md. *)
type plane

val default_plane : plane
(** The paper's plane: every relay triggers a standalone READ-DISPERSE
    MD-META round (O(n²) messages per read), one [Relay] per coded
    element, MD-META forwarded at once. *)

val batched_plane : plane
(** Coalesced gossip: READ-DISPERSE entries accumulate in a
    per-destination outbox and ride on the next server-to-server
    message (or a {!gossip_staleness} flush). Relays to each reader
    process are buffered for 0.25 time units and shipped as one
    {!Messages.Relay_batch} (in a {!Keyspace}, a
    {!Messages.Keyed_batch}); both run on a {!Plane} (see {!wire}). MD-META forwards are staggered by 4.0 per
    coordinate (the worst-case forward-arrival lag under the
    uniform(0.2, 2.0) delay model is 3.8): coordinate [i > 0] delays
    its forwards by [4.0 * i] and cancels them when a copy of the same
    [mid] arrives from a lower coordinate, cutting the forward storm
    from O(f·n) to O(n) on the failure-free path at the price of a
    wider crash-vulnerability window (DESIGN.md). The configuration the
    overhead bench, the sharded keyspace and the batched chaos cell
    run. *)

val gossip_off_plane : plane
(** The ablation-gossip plane: the paper's plane with no READ-DISPERSE
    announcements at all, mirroring ORCAS-B, so only READ-COMPLETE
    unregisters a read and a crashed reader is relayed to forever. *)

val gossip_staleness : float
(** 25.0 time units. Under {!batched_plane}, the longest the oldest live
    gossip entry of an outbox waits for a piggyback before a standalone
    {!Messages.Gossip} (in a {!Keyspace}, a [Keyed_gossip]) flush is
    forced, so unregistration of crashed readers cannot stall behind a
    quiet link. *)

(** Mutable counters for the healing plane's periodic work, aggregated
    per deployment (all servers bump the same record). Always allocated;
    all-zero when [healing = false]. Suspicions, rot detections,
    auto-repairs and scrub repairs are probe events
    ({!Protocol.Probe}), counted from the probe stream. *)
type heal_stats = { mutable heartbeats_sent : int; mutable scrub_sweeps : int }

(** Pluggable message plane. A {!Deployment} on {!batched_plane}, and
    every key instance of a {!Keyspace}, re-routes its traffic through
    a {!Plane} — piggybacking gossip on server-to-server sends,
    batching relays per reader process and, in a keyspace, wrapping
    messages in key envelopes — by installing a wire on its
    configuration (see {!set_wire}). Automata never call
    [Simnet.Engine.send] directly; they go through {!send}, which falls
    through to the engine when no wire is installed (the paper's plane
    on a bare deployment). *)
type wire = {
  wire_send : Messages.t Simnet.Engine.context -> dst:int -> Messages.t -> unit;
      (** Replacement for every protocol-level send of the instance. *)
  wire_gossip :
    Messages.t Simnet.Engine.context -> Messages.gossip_entry -> unit
      (** Takes each deferred READ-DISPERSE entry under the coalesced
          plane (see {!gossip}). *)
}

type t = {
  params : Params.t;
  code : Mds.t;
      (** [rs-bch[n, n-f]] for SODA, [rs-bch[n, n-f-2e]] for SODA{_err}
          ([rs-bch16] beyond 255 servers). *)
  decode_threshold : int;
      (** Coded elements a reader needs before decoding: [k] for SODA,
          [k + 2e] for SODA{_err}; also the server-side unregistration
          threshold (Fig. 6). *)
  servers : int array;  (** pid of server coordinate [i] at index [i]. *)
  initial_value : bytes;
  error_prone : bool array;
      (** Coordinates whose local disk reads return corrupted elements
          (SODA{_err} fault model); all-false for plain SODA. *)
  disperse_step : float;
      (** Delay between a sender's successive MD sends, letting crash
          events interleave with a dispersal (the writer-crash scenarios
          of Section III). *)
  md_mode : [ `Chained | `Direct ];
      (** [`Chained] (default) is the paper's MD-VALUE primitive: the
          full value goes to the first f+1 servers, which fan out coded
          elements — uniform under sender crashes, at O(f^2) write cost.
          [`Direct] is the naive ablation: the writer sends each coded
          element straight to its server at cost n/k, but a writer crash
          mid-dispersal can leave a partial write that no server can
          complete, losing uniformity (and, combined with f server
          crashes, read liveness). Used by the [ablation-md] benchmark. *)
  plane : plane;
      (** How gossip/relays/forwards hit the wire; read it through
          {!gossip_mode}, {!relay_window} and {!meta_stagger}. *)
  client_retry : float option;
      (** When [Some interval], clients re-issue the pending phase of a
          stalled operation every [interval] time units: a writer/reader
          in its get phase re-polls the servers, a reader in its collect
          phase re-broadcasts READ-VALUE. Needed under crash-repair
          chaos, where [Server.begin_repair] wipes reader registrations
          (the crash lost them) — without re-registration a long-lived
          read could permanently fall below the decode threshold.
          Retries assume the reliable transport (re-sends are deduped by
          receivers and all replies are idempotent, but over a raw
          lossy network they would be pointless); [Deployment.deploy]
          arms them exactly when the engine's transport is reliable.
          [None] (the default) leaves the paper's retry-free clients. *)
  healing : bool;
      (** [true] arms the self-healing plane (failure detector +
          scrubber, at the fixed cadences of "Self-healing plane" in
          DESIGN.md) on every server; [false] (default) disables it
          entirely — not a single extra event is scheduled, keeping
          traces bit-identical to pre-healing builds. *)
  heal_stats : heal_stats;
  mutable auto_repair : (int -> unit) option;
      (** Filled in by [Deployment.deploy] when healing is armed: called
          with a coordinate when a quorum of survivors suspects it. The
          deployment checks the suspect really is crashed (a partitioned
          server must not be wiped) and that no auto-repair is already
          pending before spawning [Server.begin_repair]. Not for direct
          use. *)
  cost : Cost.t;
  probe : Probe.t;  (** created not recording (see {!Probe.record}) *)
  history : History.t;
  mutable encode_cache : (bytes * Erasure.Fragment.t array) option;
      (** One-entry cache for {!encode}, keyed by physical equality.
          Not for direct use. *)
  mutable wire : wire option
      (** Message-plane override; [None] sends straight to the engine.
          Install with {!set_wire}; read through {!send} and
          {!gossip}. *)
}

val send : t -> Messages.t Simnet.Engine.context -> dst:int -> Messages.t -> unit
(** The one send primitive of every automaton: [Engine.send] when no
    wire is installed, the wire's [wire_send] otherwise. *)

val gossip : t -> Messages.t Simnet.Engine.context -> Messages.gossip_entry -> unit
(** Hand one deferred READ-DISPERSE entry to the wire's [wire_gossip]
    (the coalesced gossip of {!batched_plane}).
    @raise Invalid_argument when no wire is installed. *)

val set_wire : t -> wire -> unit
(** Install the message-plane override (once, after {!make} or
    {!derive}).
    @raise Invalid_argument if a wire is already installed. *)

val gossip_mode : t -> [ `Broadcast | `Coalesced | `Off ]
(** How a relay is announced: a standalone READ-DISPERSE round
    ({!default_plane}), an outbox entry ({!batched_plane}), or not at
    all ({!gossip_off_plane}). *)

val relay_window : t -> float option
(** [Some w]: buffer relays to each reader process for up to [w] time
    units ({!batched_plane}). [None] on the other planes. The window is
    applied by the {!Plane} the configuration's wire runs on. *)

val meta_stagger : t -> float option
(** [Some sigma] under {!batched_plane}: see there. *)

val encode : t -> bytes -> Erasure.Fragment.t array
(** [Mds.encode t.code value] behind a one-entry physical-equality
    cache. Under chained MD-VALUE dispersal every member of D encodes
    the same value object, so the cache turns [d] encodes per write
    into one. Callers must treat the returned fragments (shared across
    servers) as immutable — which fragments are: corruption copies. *)

val make :
  params:Params.t ->
  servers:int array ->
  ?initial_value:bytes ->
  ?value_len:int ->
  ?error_prone:int list ->
  ?disperse_step:float ->
  ?md_mode:[ `Chained | `Direct ] ->
  ?plane:plane ->
  ?client_retry:float ->
  ?healing:bool ->
  unit ->
  t
(** Builds the configuration. The codec is the systematic BCH-form
    Reed-Solomon code ({!Mds.rs_bch}, or {!Mds.rs_bch16} beyond 255
    servers) with [k = Params.k_soda params] ([n-f] for SODA, [n-f-2e]
    for SODA{_err}). With [e = 0] a reader decodes from exactly [k]
    fragments, where the codec is a plain erasure decoder.
    [value_len] (default: length of [initial_value], or 1024 if that is
    empty) sets the cost normalization base.
    [plane] defaults to {!default_plane}.
    @raise Invalid_argument if [servers] does not have [n] entries or an
    [error_prone] coordinate is out of range or they number more than
    [e]. *)

val derive : t -> servers:int array -> t
(** Per-key instance configuration of a keyspace: shares the template's
    protocol parameters, codec, plane tuning, client-retry policy and
    encode cache (so a shared initial value is encoded once across all
    keys), with fresh cost/probe/history ledgers, the given server
    pids, no healing and no wire.
    @raise Invalid_argument if [servers] does not have [n] entries. *)

val client_retry_for : 'msg Simnet.Engine.t -> float option
(** The client retry policy of a register on this engine: [Some 80.0]
    when the engine's transport is reliable, [None] over the raw
    transport, where a retry cannot mask a loss. Used by
    [Deployment.deploy] and [Keyspace.create]; see
    {!field-client_retry}. *)

val coordinate_of : t -> pid:int -> int
(** Inverse of [servers].
    @raise Not_found for a pid that is not a server. *)

val d_size : t -> int
(** Size of the distinguished first set D of the MD primitives:
    [f + 1]. *)
