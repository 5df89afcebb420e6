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
    pending sends, receiver dedup, backoff arithmetic, counters — while
    {!Engine} owns scheduling, fault-plane checks and randomness.

    State lives in one record per directed link, found by pid (no
    hashing). The sender keeps a power-of-two ring of unacked sends over
    [\[base, next_seq)], doubling when full; acks and give-ups vacate
    slots and advance [base]. The receiver keeps the highest contiguous
    sequence number plus a bitmap ring of the arrivals above it. Memory
    is therefore bounded by the in-flight window, not by the number of
    messages in the run, and every operation is O(1) amortised.
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

val validate : config -> unit
(** @raise Invalid_argument on any field outside its documented range. *)

val backoff_schedule : config -> retries:int -> float list
(** The jitter-free timeout sequence: element [i] is the delay between
    transmission [i] and [i+1]. Monotone non-decreasing, capped at
    [max_rto] (regression-tested). *)

type t

val create : config -> t
val config : t -> config

val max_seq : int
(** Sequence numbers are packed into the engine's event tag word; a link
    that exhausts them raises. *)

val alloc_seq : t -> src:int -> dst:int -> int
(** Next sequence number on the directed link, from 0.
    @raise Invalid_argument past {!max_seq}. *)

val register : t -> src:int -> dst:int -> seq:int -> Obj.t -> float
(** Record an unacked send and return the initial retransmission
    timeout. [seq] must come from {!alloc_seq} on the same link, with no
    ack for the link processed in between (the engine registers right
    after allocating).
    @raise Invalid_argument if [seq] is not such a sequence number. *)

val receive : t -> src:int -> dst:int -> seq:int -> [ `Fresh | `Duplicate ]
(** Receiver side: [`Fresh] exactly once per (link, seq) — the caller
    must deliver to the protocol handler on [`Fresh] and suppress on
    [`Duplicate] (acking in both cases: a duplicate means the sender
    missed the last ack). *)

val ack : t -> src:int -> dst:int -> seq:int -> unit
(** Sender side: the destination confirmed receipt; the pending entry is
    discharged and later retransmission timers become no-ops. Idempotent
    (acks themselves ride the lossy network and may be duplicated). *)

val on_timer : t -> src:int -> dst:int -> seq:int ->
  [ `Done | `Give_up | `Retransmit of Obj.t * float ]
(** Retransmission timer fired. [`Done]: already acked. [`Give_up]: the
    retry cap is exhausted; the entry is dropped and counted. Otherwise
    the payload to retransmit and the {e next} timeout (backed off,
    jitter-free — the engine adds its seeded jitter). *)

(** {1 Counters} *)

val in_flight : t -> int
(** Registered sends not yet acked or given up (a counter, O(1)). *)

val retransmissions : t -> int
val duplicates_suppressed : t -> int

val abandoned : t -> int
(** Sends that hit the retry cap. *)
