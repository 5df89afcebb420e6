(** Deploying and driving a SODA / SODA{_err} system on a simulation
    engine.

    A deployment registers [n] server processes plus the requested writer
    and reader client processes on an engine supplied by the caller (who
    therefore controls the delay model, the seed and crash scheduling),
    and exposes asynchronous [write]/[read] operations recorded in a
    {!Protocol.History}. Setting [e > 0] in the parameters selects
    SODA{_err}: the BCH codec with [k = n - f - 2e], the [k + 2e]
    decode/unregistration threshold, and the [error_prone] fault model.

    This is the single-register path: the paper's algorithm over bare,
    un-keyed messages, with the optional self-healing plane. For many
    objects on one server fleet use {!Keyspace.create}, which takes a
    {!Placement} (and through it the {!Topology}); {!Store} names the
    keys of one keyspace. *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe

type t

val deploy :
  engine:Messages.t Simnet.Engine.t ->
  params:Params.t ->
  ?initial_value:bytes ->
  ?value_len:int ->
  ?error_prone:int list ->
  ?disperse_step:float ->
  ?md_mode:[ `Chained | `Direct ] ->
  ?plane:Config.plane ->
  ?healing:bool ->
  num_writers:int ->
  num_readers:int ->
  unit ->
  t
(** Register all processes: [n] servers, then the writers, then the
    readers. See {!Config.make} for the optional arguments. On
    {!Config.batched_plane} a {!Plane} over these processes, with bare
    frames, becomes the configuration's {!Config.wire}.

    [healing] arms the self-healing plane: every server runs
    {!Server.start_healing} (heartbeat failure detector + anti-entropy
    scrubber) from time zero, and the deployment installs the
    auto-repair hook — when a quorum of [f + 1] survivors suspects a
    coordinate that really is crashed, {!repair_server} is launched
    autonomously at the current sim time (at most once per crash
    episode), so a [Crash] with no scheduled [Repair] heals itself. A
    merely partitioned server is suspected too but never wiped: the
    hook checks the engine's crash state. With the default [None], no
    extra event is ever scheduled and traces are bit-identical to an
    unhealed deployment.

    Either client count may be zero (a reader-only or writer-only
    deployment is legal).
    @raise Invalid_argument on a negative client count. *)

val write :
  t -> writer:int -> at:float -> ?on_done:(unit -> unit) -> bytes -> unit
(** Schedule writer number [writer] (0-based) to invoke a write at
    simulated time [at]. The operation appears in {!history} when the
    invocation executes. Clients are single-lane: scheduling a second
    operation on a client whose previous one is still in flight is a
    well-formedness violation and raises (inside the engine run).

    Every entry point that takes a [writer] or [reader] number checks it
    first and raises [Invalid_argument "Deployment.<name>: writer out of
    range"] (or [reader]) when it is outside [0, num_writers) (or
    [0, num_readers)), before anything is scheduled. *)

val read : t -> reader:int -> at:float -> ?on_done:(bytes -> unit) -> unit -> unit

(** {1 Fault injection}

    Every entry point that takes a server [coordinate] checks it first
    and raises [Invalid_argument] when it is outside [0, n), before
    anything is scheduled or a probe emitted. *)

val crash_server : t -> coordinate:int -> at:float -> unit
(** Schedule a crash of the server at time [at]. On a healing
    deployment it emits the [Crash_injected] probe that opens the crash
    episode. *)

val crash_writer : t -> writer:int -> at:float -> unit
val crash_reader : t -> reader:int -> at:float -> unit

val corrupt_server : t -> coordinate:int -> at:float -> unit
(** Schedule silent bit-rot of the server's stored coded element at time
    [at]: the payload is deterministically garbled under its checksum
    (seeded from the schedule, so replays corrupt identically). Nothing
    is detected until the next verified read or scrub sweep. Discarded
    if the server is crashed at [at]. *)

val set_error_window : t -> coordinate:int -> (float * float) option -> unit
(** SODAerr: restrict the coordinate's error-prone fault to a sim-time
    window; see {!Server.set_error_window}. *)

val repair_server : t -> coordinate:int -> at:float -> int
(** Restore a crashed server at time [at] and start the repair protocol
    (the paper's future-work item (ii)): the server comes back with no
    volatile state and its element reset, abstains from quorum duties,
    and fetches coded elements from its peers until it can decode and
    re-encode the element for the highest tag reported by [n-1-f] of
    them — which covers every write completed before the repair, so
    atomicity is preserved. Returns the accounting operation id of the
    repair traffic (roughly [k * 1/k = 1] value unit).

    Safety of rejoin requires [n >= 2f + 2e + 1] (any completed write's
    [k] element holders must intersect the [n-1-f] repliers); with the
    paper's [f <= (n-1)/2] this always holds for plain SODA, and for
    SODA{_err} whenever [e] additional servers exist. Liveness of the
    repair itself assumes writes quiesce long enough for some tag to
    accumulate [decode_threshold] elements (bounded retries give up
    otherwise, leaving the server silently degraded but safe). *)

val partition_servers : t -> coordinates:int list -> at:float -> unit
(** Blackhole, from time [at], every link between the named servers and
    the rest of the deployment (other servers and all clients), in both
    directions — the isolated group keeps its state but neither hears
    nor is heard until the matching {!heal_servers}. Under the raw
    transport messages into the cut are lost; under the reliable
    transport ([Engine.create ~transport:(`Reliable _)]) they are
    retransmitted and arrive after the heal. As long as at most [f]
    servers are crashed or isolated at once, SODA's quorums never need
    the cut links, so liveness and atomicity must survive (the chaos
    suite checks exactly this).
    @raise Invalid_argument on an out-of-range coordinate. *)

val heal_servers : t -> coordinates:int list -> at:float -> unit
(** Schedule the heal of a {!partition_servers} with the same
    coordinate set. Partition/heal pairs must alternate per set (the
    trace checker enforces this). *)

(** {1 Observation} *)

val engine : t -> Messages.t Simnet.Engine.t
(** The engine the deployment was built on. *)

val repairing : t -> bool
(** [true] while any server of the deployment is mid-repair (its element
    has been wiped and not yet recovered). A nemesis must not take
    another server down while this holds: with [k = n - f], wiping more
    than [f] elements at once can destroy committed data beyond what any
    algorithm could recover (see {!Harness.Nemesis.apply_gated}). *)

val scrub_clean : t -> bool
(** [true] iff every server's stored element passes its checksum and
    none is quarantined — the "all corruption healed by quiescence"
    predicate of the bit-rot chaos cells. *)

val all_live : t -> bool
(** [true] iff no server process is currently crashed — the
    convergence predicate of the detector chaos cell. *)

val history : t -> History.t
val cost : t -> Cost.t
val probe : t -> Probe.t
val config : t -> Config.t

val server_pid : t -> coordinate:int -> int

val server : t -> coordinate:int -> Server.t
(** Direct access to a server automaton's state, for tests. *)

val initial_value : t -> bytes

