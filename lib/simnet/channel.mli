(** Reliable-channel substrate: ack/retransmit bookkeeping.

    SODA's proofs (Thms 5.1–5.2) and the CAS/ABD baselines assume
    reliable point-to-point channels. Over the adversarial fault plane
    ({!Link_faults}) that axiom no longer holds, so the engine can mount
    this substrate under every process ([~transport:(`Reliable config)]):
    each logical send is assigned a per-link sequence number, transmitted,
    and retransmitted with exponential backoff (plus seeded jitter) until
    the destination's ack arrives or the retry cap is hit; the receiver
    side acknowledges every arrival with its own ack and suppresses
    redelivery of sequence numbers it has already handed to the
    protocol. Protocols run unmodified — they keep calling [Engine.send]
    and receiving through their installed handlers — and regain
    exactly-once delivery over any loss schedule with drop probability
    < 1 and finite partitions (within the retry budget).

    Acks are per message, never cumulative. An ack naming only the
    highest contiguous sequence cannot discharge the sends above a lost
    packet, so every later send's timer fires after one loss: measured on
    the soak-lossy workload (n = 10, 20% loss), cumulative acks cost
    4× the retransmissions and half the throughput of per-message acks
    (EXPERIMENTS.md, "One ack mode").

    This module owns the pure state machine — sequence allocation,
    pending sends, receiver dedup, backoff arithmetic, timer deadlines,
    counters — while {!Engine} owns scheduling, fault-plane checks and
    randomness.

    Retransmission timers are lazy. The engine draws every
    transmission's loss and delay when it sends it, so it records each
    pending send's timer deadline here ({!set_deadline}) and pushes the
    timer into its queue only when {!arm} reports that the timer can
    fire: a copy or its ack was lost, a copy reached a crashed or
    handler-less destination, or a copy or its ack lands at or after the
    deadline. A send none of that happens to is acked strictly before
    its deadline, so its timer never exists; an eager timer would have
    popped as a no-op after the ack.

    Acks settle when they are sent. An ack's landing time is drawn at
    its transmission, so {!settle} decides then whether it beats the
    timer: an ack landing strictly before the deadline, or exactly at it
    while no timer is queued, discharges the send at once and is never
    an event, and neither is an ack for a send already discharged. Only
    a late ack — landing after the deadline, or exactly at a deadline
    whose timer is already queued (the timer pops first and
    retransmits) — is queued, and its landing discharges the send
    ({!ack}). Event order and every retransmission decision are those
    of an engine that queues every ack; a loss-free delivery is one
    event.

    State lives in one record per directed link ({!link}), found by pid
    (no hashing). The sender keeps its unacked sends in a pending store of
    two parts: a power-of-two ring over the recent sequence numbers
    [\[base, next_seq)], and a side table of {e strays}, pending sends
    below [base]. Acks and give-ups vacate slots and advance [base].
    When the ring fills while at most a quarter of it is pending, its
    older half's pending sends move to the side table and the ring
    slides past them; otherwise it doubles. So one send stuck behind a
    partition no longer holds every later, long-acked slot. The
    receiver keeps the highest contiguous sequence number plus a bitmap
    ring of the arrivals above it, at most 4,096 wide. A sequence number
    that falls further behind the newest arrival (its send was given up,
    or is still retrying) becomes a hole in a side table, and the
    contiguous mark slides past it; a late copy of a hole is still
    fresh once. Both sides' memory is therefore bounded by the sends in
    flight and the holes, not by the number of messages in the run, and
    every operation is O(1) amortised.
    Payloads are stored as [Obj.t] because they live inside the engine's
    uniformly-typed queue; the engine is the only caller and casts them
    back under the same discipline it uses for queued events. *)

type config = {
  rto : float;  (** initial retransmission timeout, > 0 *)
  backoff : float;  (** timeout multiplier per retry, >= 1 *)
  max_rto : float;  (** timeout cap, >= rto *)
  jitter : float;
      (** each scheduled retransmission is delayed by an extra uniform
          draw in [0, jitter * timeout); >= 0. Jitter decorrelates the
          retry storms of messages lost in the same partition window. *)
  max_retries : int;
      (** retransmissions per message before the sender gives up, >= 0.
          A give-up breaks the reliable abstraction and is counted in
          {!abandoned}; size the cap so that the backoff schedule outlives
          the longest fault window the harness injects. *)
}

val default : config
(** [{ rto = 5.0; backoff = 1.6; max_rto = 60.0; jitter = 0.1;
      max_retries = 50 }] — sized for the repo's delay models
    (transit <= 2–10 time units) and nemesis partition windows. *)

val backoff_schedule : config -> retries:int -> float list
[@@lint.allow "X1: test oracle — the retransmission timeouts on_timer \
               returns are checked against it"]
(** The jitter-free timeout sequence: element [i] is the delay between
    transmission [i] and [i+1]. Monotone non-decreasing, capped at
    [max_rto] (regression-tested). *)

type t

val create : config -> t
(** @raise Invalid_argument on any field outside its documented range. *)

val config : t -> config

val max_seq : int
(** Sequence numbers are packed into the engine's event tag word; a link
    that exhausts them raises. *)

(** {1 Links}

    Every operation below acts on one directed link, resolved once by
    the caller per event ({!link}) and passed to each call.

    Times cross the interface through a one-slot cell ({!cell}), the
    way {!Event_queue.inbox} does: the caller stores a time it passes in
    index 0 before the call, and reads a time a call returns from it
    after. Without cross-module inlining a float argument or result is
    boxed on every call; through the cell, once a link's ring and bitmap
    have grown to their size, no operation allocates while its sends
    stay in the ring. *)

type link

val link : t -> src:int -> dst:int -> link
(** The state of the directed link [src -> dst], created on first use:
    the sender side of the data it carries and the receiver side's
    dedup. *)

val cell : t -> float array
(** The one-slot time cell, stable across the channel's lifetime. *)

val register : t -> link -> Obj.t -> int
(** Allocate the link's next sequence number, from 0, record an unacked
    send of the payload under it, return it, and leave the initial
    retransmission timeout in the cell. No timer exists yet: its
    deadline is unset until {!set_deadline}.
    @raise Invalid_argument past {!max_seq}. *)

val set_deadline : t -> link -> seq:int -> armed:bool -> unit
(** The pending send's current transmission times out at the deadline
    in the cell (the timeout plus the engine's jitter, from now).
    [armed]: the caller queues the timer at the deadline right away,
    because a copy of this transmission is already known to be lost or
    to land at or after it; otherwise nothing is queued until {!arm}
    says so.
    @raise Invalid_argument if [seq] is not pending. *)

val arm : t -> link -> seq:int -> bool
(** An event settles the send no earlier than the time in the cell
    ([infinity] when a copy or ack was lost or dropped). If the send is
    pending, its timer unarmed and that time is at or after its
    deadline, marks the timer armed, leaves the deadline in the cell and
    returns [true]: the caller must then queue the timer at it.
    Otherwise [false], the cell untouched: the send is discharged, its
    timer already queued, or the ack can still beat the deadline. An
    unset deadline is [infinity]. *)

val receive : t -> link -> seq:int -> [ `Fresh | `Duplicate ]
(** Receiver side: [`Fresh] exactly once per (link, seq) — the caller
    must deliver to the protocol handler on [`Fresh] and suppress on
    [`Duplicate] (acking in both cases: a duplicate means the sender
    missed the last ack). *)

val settle : t -> link -> seq:int -> bool
(** An ack for [seq] was just transmitted and lands at the time in the
    cell. [true] when the send needs no ack event: it is already
    discharged, or the ack lands strictly before its deadline or, with
    the timer unarmed, exactly at it — the send is then discharged now.
    [false]: the ack is late; the caller queues it (its landing calls
    {!ack}) and {!arm}s the timer. A timer already armed for a settled
    send still pops, as a no-op ([`Done] from {!on_timer}). The cell is
    left untouched. *)

val ack : t -> link -> seq:int -> unit
(** Sender side: a late ack landed; the pending entry is discharged.
    Idempotent (acks themselves ride the lossy network and may be
    duplicated). *)

val on_timer : t -> link -> seq:int -> [ `Done | `Give_up | `Retransmit ]
(** An armed retransmission timer fired (only armed timers are ever
    queued, at their deadline). The result is a constant constructor,
    an immediate int. [`Done]: acked since it was armed. [`Give_up]:
    the retry cap is exhausted; the entry is dropped and counted.
    [`Retransmit]: the send stays pending, its {!payload} is to be sent
    again, and the {e next} timeout is in the cell: element [tries] of
    {!backoff_schedule}, read from a table built once from the config
    (jitter-free — the engine adds its seeded jitter, then calls
    {!set_deadline} for the new, unarmed timer). *)

val payload : link -> seq:int -> Obj.t
(** The pending send's payload.
    @raise Invalid_argument if [seq] is not pending. *)

(** {1 Counters} *)

val in_flight : t -> int
(** Registered sends not yet acked or given up (a counter, O(1)). *)

val window_slots : t -> int
[@@lint.allow "X1: state probe — tests bound the sender store by the \
               sends in flight"]
(** Sender-side slots held over every link: ring capacity plus strays. *)

val retransmissions : t -> int
val duplicates_suppressed : t -> int

val abandoned : t -> int
(** Sends that hit the retry cap. *)
