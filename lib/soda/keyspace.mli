(** A sharded multi-object keyspace: many independent per-key SODA
    instances multiplexed over one shared plane of server processes.

    The paper's algorithm manages a single atomic register. Real
    deployments manage millions of objects, and giving each its own
    [n] processes would waste both processes and messages. A keyspace
    instead registers one fixed fleet of server processes (a
    {!Topology}) and runs each logical key as an independent [n,k]
    SODA instance {e on} that fleet: a {!Placement} maps the key to
    the [n] physical servers holding its fragments, and every
    protocol message crosses the wire wrapped in a key envelope
    ({!Messages.Keyed} and friends) so one process can host thousands
    of per-key server automata.

    Sharing the plane is what makes the multiplexing pay: READ-DISPERSE
    gossip from {e different} keys headed to the same peer coalesces
    into one {!Messages.Keyed_gossip} frame (or piggybacks on the next
    keyed send as a {!Messages.Keyed_envelope}), and client-bound
    relays share {!Messages.Keyed_batch} frames under the plane's
    relay window — so total messages per operation {e drops} as the
    key count grows, where independent deployments would stay flat.
    Atomicity remains per key: instances share wires but no protocol
    state.

    Instances materialize lazily on first use by a client ({!write},
    {!read}) or by {!materialize}; a server refuses a frame for a key
    not materialized here ([Invalid_argument]). Placement is a pure
    function of the key, so a keyspace built on the same engine with
    the same arguments reproduces the same traffic — all the
    determinism guarantees of {!Simnet.Engine} carry over.

    This is one of the two ways to build a system: {!Deployment.deploy}
    runs the paper's single register over bare messages, and {!create}
    is the multi-key path ({!Store} names the keys of one keyspace). *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity

type t

val create :
  engine:Messages.t Simnet.Engine.t ->
  placement:Placement.t ->
  ?value_len:int ->
  ?plane:Config.plane ->
  num_writers:int ->
  num_readers:int ->
  unit ->
  t
(** Register the fleet: one process per topology server (reserved
    first, in index order), then the writer and reader client
    processes. The optional arguments parameterize the shared
    configuration template exactly as in {!Config.make}, whose defaults
    set the rest (an empty initial value, no error-prone server, chained
    dispersal); every key's instance derives from it ({!Config.derive}).
    All traffic is wrapped in key envelopes and coalesces across keys;
    the topology is the one the placement was built over.

    Clients are multi-lane: one protocol lane per (client, key) pair,
    so a client process may have operations in flight on many keys at
    once, but scheduling a second operation on the {e same} key of a
    busy lane is still a well-formedness violation.
    @raise Invalid_argument on negative client counts. *)

(** {1 Operations} *)

val write :
  t -> key:int -> writer:int -> at:float -> ?on_done:(unit -> unit) -> bytes -> unit
(** Schedule writer [writer]'s lane for [key] to invoke a write at
    simulated time [at], materializing the key's instance if needed.
    The operation lands in {!history}[ ~key].
    @raise Invalid_argument if [writer] is out of range, before
    anything is scheduled. *)

val read :
  t -> key:int -> reader:int -> at:float -> ?on_done:(bytes -> unit) -> unit -> unit
(** As {!write}, for reader [reader]'s lane. *)

val materialize : t -> key:int -> unit
(** Force the key's instance into existence now (operations do this
    implicitly). Useful when fault injection or storage accounting
    must cover a key before its first operation.
    @raise Invalid_argument on a negative key. *)

(** {1 Fault injection}

    Faults are machine-level: they hit a {e physical} server process
    and therefore every key instance it hosts. As long as each key
    sees at most [f] of its [n] placed servers crashed or isolated at
    once, atomicity and liveness survive per key — with a
    {!Placement.domain_safe} placement that budget covers the loss of
    any whole failure domain. *)

val crash_server : t -> server:int -> at:float -> unit
(** Crash the physical server with the given topology index.
    @raise Invalid_argument out of range. *)

val repair_server : t -> server:int -> at:float -> unit
(** Restore the process at [at] and start the repair protocol on every
    key instance it hosts (ascending key order). Each instance's
    repair gets its own key-scoped accounting op id
    ([1_000_000 + seq] within that instance), so repair traffic is
    charged to the right key's ledger. Pending cross-key outboxes and
    relay buffers are volatile and lost with the crash. *)

val corrupt_server : t -> server:int -> at:float -> unit
[@@lint.allow "X1: fault hook — the sharded rot test garbles one server's \
               hosted keys through it"]
(** Silently garble the stored coded element of every hosted key
    instance (deterministically seeded per key and schedule), emitting
    a [Rot_injected] probe per instance. *)

val crash_domain : t -> domain:int -> at:float -> unit
(** {!crash_server} for every member of the failure domain. *)

val partition_domain : t -> domain:int -> at:float -> unit
[@@lint.allow "X1: fault hook — the domain-part chaos cell cuts off a whole \
               failure domain through it"]
val heal_domain : t -> domain:int -> at:float -> unit
[@@lint.allow "X1: fault hook — ends the domain-part chaos cell's partition"]

(** {1 Observation} *)

val keys : t -> int list
(** Keys with materialized instances, ascending. *)

val config : t -> key:int -> Config.t
(** The key's derived instance configuration.
    @raise Invalid_argument if the key has no instance yet. *)

val history : t -> key:int -> History.t
val cost : t -> key:int -> Cost.t
val probe : t -> key:int -> Probe.t
[@@lint.allow "X1: state probe — tests read a key's probe stream"]

val placement_of : t -> key:int -> int array
(** The physical server index of each coordinate of the key's
    instance (a copy). Placement is a pure function of the key, so
    this answers without materializing the instance.
    @raise Invalid_argument on a negative key. *)

val all_complete : t -> bool
(** Every invoked operation on every key completed. *)

val check_atomicity : t -> (unit, int * Atomicity.violation) result
(** Check every key's history independently against its own initial
    value; [Error (key, v)] names the first offending key (ascending
    order). *)

val repairing : t -> bool
(** Some instance somewhere is mid-repair. *)

val total_storage : t -> float
(** Sum over keys of the instance's maximum concurrent total storage,
    in value units — the multi-object analogue of the paper's
    [n/(n-f)] bound per register. *)
