(** A priority queue of timestamped events.

    Two tiers in struct-of-arrays form. A ring of sorted buckets, each
    1/512 of a time unit wide, holds the near future from the last
    popped time on; a binary min-heap holds the rest (far-future
    events, and any push behind the ring's window). Pushes and pops near
    the clock are O(1); times live in flat unboxed [float array]s, so
    pushes and pops allocate nothing once the backing arrays have grown
    to the queue's high-water mark. Events are delivered in (time,
    insertion order) whichever tier holds them: a monotonically
    increasing sequence number breaks ties, which makes simulations
    fully deterministic.

    Each event also carries an [int] {e tag} — a caller-owned word of
    payload that rides in an unboxed side array. {!Simnet.Engine} packs
    the event kind and the endpoint pids into it so that its per-send
    hot path allocates no wrapper records. *)

type 'a t

exception Empty
(** Raised by {!next_time} and {!pop_exn} on an empty queue. *)

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
(** A one-slot cell owned by the queue: index 0 is the earliest event's
    time while the queue is non-empty (check {!is_empty} first — it is
    meaningless when empty). The array is stable across the queue's
    lifetime; every push and pop keeps its contents current. *)

val unsafe_tags : 'a t -> int array
(** The earliest event's tag, in a one-slot cell like
    {!unsafe_times}. *)

(** {1 The earliest event} *)

val next_time : 'a t -> float
[@@lint.allow "X1: state probe — the queue's model tests read the earliest \
               time through it; the engine reads unsafe_times"]
(** Timestamp of the earliest event. @raise Empty when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload. Read its time
    and tag ({!next_time}, {!unsafe_tags}) {e before} popping.
    @raise Empty when empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
