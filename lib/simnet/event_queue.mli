(** A priority queue of timestamped events.

    Struct-of-arrays binary min-heap: times live in a flat unboxed
    [float array], so pushes and pops allocate nothing once the backing
    arrays have grown to the queue's high-water mark. Events with equal
    timestamps are delivered in insertion order (a monotonically
    increasing sequence number breaks ties), which makes simulations
    fully deterministic.

    Each event also carries an [int] {e tag} — a caller-owned word of
    payload that rides in an unboxed side array. {!Simnet.Engine} packs
    the event kind and the endpoint pids into it so that its per-send
    hot path allocates no wrapper records. *)

type 'a t

exception Empty
(** Raised by {!next_time}, {!next_tag} and {!pop_exn} on an empty
    queue. *)

val create : unit -> 'a t

val push_tagged : 'a t -> time:float -> tag:int -> 'a -> unit
(** [push_tagged q ~time ~tag payload] enqueues [payload], storing [tag]
    alongside it.
    @raise Invalid_argument on a NaN timestamp. *)

(** {1 Zero-boxing paths}

    Floats crossing a function boundary are boxed without flambda, so
    the engine's hot loop exchanges event times with the queue through
    flat float arrays instead of arguments and results. Ordinary
    callers should ignore this section. *)

val inbox : 'a t -> float array
(** A one-slot staging cell owned by the queue: store the event time
    into index 0 (an unboxed float-array write), then call
    {!push_inbox}. The array is stable across the queue's lifetime. *)

val push_inbox : 'a t -> tag:int -> 'a -> unit
(** As {!push_tagged}, taking the timestamp from [inbox q].(0).
    @raise Invalid_argument on a NaN timestamp. *)

val unsafe_times : 'a t -> float array
(** The backing timestamp array; index 0 is the earliest event's time
    while the queue is non-empty (check {!is_empty} first — the
    contents of unused slots are meaningless). The array is replaced
    when the queue grows: re-fetch after any push. *)

val unsafe_tags : 'a t -> int array
(** The backing tag array, parallel to {!unsafe_times}; index 0 is the
    earliest event's tag while the queue is non-empty. Same caveats as
    {!unsafe_times}: re-fetch after any push. *)

(** {1 Allocation-free access to the earliest event} *)

val next_time : 'a t -> float
[@@lint.allow "X1: state probe — the queue's model tests read the earliest \
               time through it; the engine reads unsafe_times"]
(** Timestamp of the earliest event. @raise Empty when empty. *)

val next_tag : 'a t -> int
(** Tag of the earliest event. @raise Empty when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload. Read
    {!next_time} / {!next_tag} {e before} popping.
    @raise Empty when empty. *)

(** {1 Cohort draining}

    All events sharing the minimal timestamp form a subtree of the heap
    containing the root, so they can be removed together: one DFS plus
    one sift-down per vacated slot, instead of one full pop per event.
    {!Simnet.Engine.run} uses this to dispatch each timestamp's cohort
    without re-entering the heap per event. *)

val drain_cohort : 'a t -> int
(** [drain_cohort q] removes {e every} event whose timestamp equals
    [next_time q] and returns the cohort size (>= 1). Read the drained
    events — in insertion (FIFO) order — with {!cohort_tag} and
    {!cohort_payload}; the cohort buffer stays valid until the next
    [drain_cohort] call on [q]. Events pushed after the drain are not
    part of the cohort even if they carry the same timestamp.
    @raise Empty when empty. *)

val cohort_tag : 'a t -> int -> int
(** [cohort_tag q i] is the tag of the [i]-th drained event, [0 <= i <
    drain_cohort q]. *)

val cohort_payload : 'a t -> int -> 'a
(** [cohort_payload q i] is the payload of the [i]-th drained event. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
