(** Randomized fault schedules ("nemesis") with the fault budget
    respected at every instant.

    The paper's model allows up to [f] servers to be crashed; with the
    repair extension a server can return, freeing budget for the next
    failure. A nemesis schedule is a random sequence of fault events over
    a time horizon such that at no point are more than [f] servers
    simultaneously {e unavailable} — crashed, or cut off by a network
    partition — the strongest fault pressure under which SODA must still
    be live and atomic. Partitioned servers keep their state (no repair
    is needed after a heal); clients are never isolated, so every client
    always reaches the [n - f] available servers its quorums need. *)

type event =
  | Crash of { coordinate : int; at : float }
  | Repair of { coordinate : int; at : float }
  | Partition of { coordinates : int list; at : float }
      (** Cut the named servers off from every other process (see
          {!Soda.Deployment.partition_servers}). *)
  | Heal of { coordinates : int list; at : float }
  | BitRot of { coordinate : int; at : float }
      (** Silently garble the server's stored coded element (see
          {!Soda.Deployment.corrupt_server}). No paired heal event: the
          self-healing plane's scrubber — or an overwriting write — is
          expected to repair it. *)

type t = event list
(** Chronological. *)

val time_of : event -> float

val generate : params:Protocol.Params.t -> seed:int -> horizon:float -> t
(** Crash/repair schedules only (the historical generator).
    Exponentially distributed uptimes and downtimes per server (means
    [horizon/3] and [horizon/10]), clipped so that at most
    [f] servers are ever down at once: a crash that would exceed the
    budget is skipped. Repairs are spaced at least a small recovery gap
    after their crash. *)

val generate_mixed :
  params:Protocol.Params.t -> seed:int -> horizon:float ->
  ?mean_downtime:float -> ?partition_fraction:float -> unit -> t
(** As {!generate} (the mean downtime defaults to [horizon/10] there
    too), but each accepted fault window becomes a network
    partition (isolating that server) with probability
    [partition_fraction] (default 0.5) and a crash/repair pair
    otherwise. Crashed and isolated servers share the single [f]
    budget, so no instant ever has more than [f] servers unavailable to
    a client — the combined schedule never cuts more than [f] servers
    off a client majority.
    @raise Invalid_argument on a fraction outside [0, 1]. *)

val generate_crash_only :
  params:Protocol.Params.t -> seed:int -> horizon:float -> t
(** Crashes with {e no} matching [Repair] events — for exercising the
    self-healing plane, whose failure detector must notice each crash
    and launch the repair autonomously. Every accepted fault window
    still reserves the [<= f] budget for its whole assumed-down span:
    a minimum downtime of 90 (far above the default suspicion timeout
    plus repair slack) plus an exponential one of mean 60 keeps a
    server's next crash from racing its own autonomous repair. Only meaningful against a deployment
    with {!Soda.Config.healing} armed: without it the victims stay down
    forever. *)

val generate_bitrot :
  params:Protocol.Params.t -> seed:int -> horizon:float -> t
(** Silent-corruption schedules: each accepted fault window becomes one
    [BitRot] at its start. A rotted element is withheld from reads
    (quarantine) exactly like an erased one until the scrubber heals
    it, so rot windows draw on the same [<= f] budget; a minimum window
    of 120 (plus an exponential one of mean 40) sizes the assumed
    detect-and-heal window (a scrub period plus targeted-repair slack at
    the default cadence). *)

val apply_gated : t -> Soda.Deployment.t -> unit
(** Drive the schedule with the repair gate: every event fires at its
    scheduled time shifted by the accumulated gating delay, and a
    [Crash] is additionally held back (re-checked every 7 time units)
    until {!Soda.Deployment.repairing} is false.

    Why the gate is necessary and not a kindness: the schedule's
    [Repair] only restores the {e process}; the protocol-level repair —
    rebuilding the wiped element from the others — takes longer under
    load and loss, and the server is as good as faulty until it
    completes. A literal-time [Crash] landing in that window can leave
    more than [f] elements wiped at once, and with [k = n - f] that is
    unrecoverable data loss no algorithm could prevent. The gate keeps
    the {e effective} fault count (crashed + still-rebuilding) within
    the budget the generators promise. Deterministic: the gate reads
    simulation state only. *)

val drive_gated :
  engine:'msg Simnet.Engine.t ->
  repairing:(unit -> bool) ->
  apply:(at:float -> event -> unit) ->
  t ->
  unit
[@@lint.allow "X1: test driver — the machine-level Store chaos test gates \
               its crashes through it; apply_gated is its deployment form"]
(** The gated driver behind {!apply_gated}, with the target abstracted:
    [repairing] is the gate predicate and [apply] materialises one event
    at the (shifted) time it fires. Use it to drive schedules into other
    targets — e.g. machine-level faults on a {!Soda.Store} with
    [repairing := Soda.Store.repairing]. *)

val max_simultaneous_down : t -> int
[@@lint.allow "X1: test oracle — the generators' fault budget is checked \
               against it"]
(** For tests: the largest number of servers simultaneously crashed or
    isolated at any instant. [BitRot] events are ignored — a rotted
    server keeps answering (tags are intact, newer writes overwrite the
    rot), so its budget is enforced at generation time
    ({!generate_bitrot}) rather than by this counter. *)

val crash_count : t -> int
val partition_count : t -> int
val bitrot_count : t -> int
