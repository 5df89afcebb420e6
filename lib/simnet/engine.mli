(** The discrete-event simulation engine.

    An engine hosts a set of {e processes} (servers and clients alike in
    the paper's model) exchanging messages of a single type ['msg] over
    point-to-point channels. Each send draws an independent transit delay
    from the engine's {!Delay.t} model, so messages on the same channel
    may be reordered — exactly the asynchronous model of the paper
    (Section II).

    Channels are reliable by default (the paper's axiom). An adversarial
    {e fault plane} ({!Link_faults}) can break that: a drop probability
    on every link, and partitions (link sets blackholed over an interval
    scheduled at absolute simulated times), applied to each physical
    transmission at its send instant.
    Mounting the reliable-channel substrate
    ([~transport:(`Reliable config)], see {!Channel}) restores
    exactly-once delivery on top of a lossy plane via acks,
    exponential-backoff retransmission and receiver-side dedup — without
    any change to the protocols, which keep using {!send} and their
    installed handlers.

    Crash failures: a crashed process stops receiving messages and its
    pending local actions are discarded; messages already in flight to it
    are silently dropped at delivery time. Senders are allowed to crash
    after a message is placed in the channel — delivery depends only on
    the destination being alive, matching the model in the paper. Under
    the reliable transport an unacked message keeps being retransmitted
    (the channel state lives in the network interface, not the process's
    volatile memory), so a message to a crashed-then-restored process is
    eventually delivered if the retry budget outlives the crash window.

    Determinism: executions are a pure function of the seed, including
    every fault-plane coin flip and retransmission timer. Event ties are
    broken by insertion order. *)

type pid = int
(** Process identifier, dense from 0 in registration order. *)

type 'msg t

type 'msg context
(** Capabilities handed to a process while it is handling an event. *)

val create :
  ?seed:int -> ?trace:bool -> ?duplication:float ->
  ?transport:[ `Raw | `Reliable of Channel.config ] ->
  ?classify:('msg -> bool) ->
  ?weigh:('msg -> int) ->
  delay:Delay.t -> unit -> 'msg t
[@@lint.allow "O1: ?duplication — test_duplication's at-least-once suite \
               and test_channel's duplication cases turn it"]
(** [create ~delay ()] builds an empty simulation. [seed] defaults to 0;
    [trace] (default false) records an event log retrievable with
    {!trace_events}; [duplication] (default 0, must be < 1) is the
    probability that a message is transmitted twice at independent delays
    — an at-least-once channel model, stricter than the paper's, under
    which the protocols' deduplication must make every step idempotent
    (under [`Reliable] the duplicate carries the same sequence number and
    is absorbed by the channel's own dedup). [transport] (default
    [`Raw]) selects the channel substrate: [`Reliable config] mounts the
    ack/retransmit layer of {!Channel} under every process, which acks
    every data arrival with its own ack message. [classify] (optional) is a
    data-vs-metadata discriminator ([true] = data-bearing) applied to
    every protocol-level send and reported through {!messages_data} /
    {!messages_meta}; without it both counters stay 0. [weigh]
    (optional) counts the logical sub-messages one wire frame carries
    (a batch of [b] relays weighs [b], a plain message weighs 1) and
    accumulates into {!payload_units}; comparing it against
    {!messages_sent} measures how hard a batching plane coalesces.
    @raise Invalid_argument on an out-of-range [duplication] or an
    invalid channel config. *)

(** {1 Topology} *)

val reserve : 'msg t -> name:string -> pid
(** Allocate a process id. The process is inert until {!set_handler}.
    @raise Invalid_argument past 2{^20} - 1 processes (pids are packed
    into the event queue's tag word). *)

val set_handler :
  'msg t -> pid -> ('msg context -> src:pid -> 'msg -> unit) -> unit
(** Install the message handler. May be called once per pid.
    @raise Invalid_argument on a second call or an unknown pid. *)

val process_count : 'msg t -> int
val name_of : 'msg t -> pid -> string

(** Observation-only tap: [tap_deliver] fires at every protocol-level
    delivery (just before the handler), [tap_ack] at every ack
    transmission ([src]/[dst] name the {e data} direction; the ack
    physically travels [dst] to [src]; [seq] is the one sequence number
    it acknowledges). [cumulative] is always [false]: acks are per
    message, and the label stays only because existing taps bind it.
    A tap draws no randomness and schedules nothing, so installing one
    cannot perturb the execution — payload-aware trace tooling
    (bin/replay) uses it to render messages the engine's own event log
    keeps opaque. *)
type 'msg tap = {
  tap_deliver : time:float -> src:pid -> dst:pid -> 'msg -> unit;
  tap_ack :
    time:float -> src:pid -> dst:pid -> cumulative:bool -> seq:int -> unit
}

val set_tap : 'msg t -> 'msg tap -> unit

(** {1 Context operations (valid only during a handler / local action)} *)

val self : 'msg context -> pid
val now_ctx : 'msg context -> float
val rng_ctx : 'msg context -> Rng.t

val send : 'msg context -> dst:pid -> 'msg -> unit
(** Place a message in the channel to [dst]. Raw transport: it is
    delivered after a model-drawn delay iff the link does not lose it
    and [dst] has not crashed by then. Reliable transport: it is
    assigned a sequence number and retransmitted until acked or the
    retry cap is hit, and delivered to the protocol handler at most
    once. Sending to self is allowed and also goes through the
    channel. *)

val send_many :
  'msg context -> dsts:pid array -> from:int -> upto:int -> 'msg -> unit
(** [send_many ctx ~dsts ~from ~upto msg] is {!send} of [msg] to
    [dsts.(i)] for [i] from [from] to [upto - 1], in that order: every
    destination draws the same delay, loss, duplication and jitter and
    bumps the same counters as that loop of sends would. The message
    is classified and weighed once for all of them. An empty range
    sends nothing.
    @raise Invalid_argument if the range leaves [dsts] or names an
    unknown pid; nothing is sent then. *)

val schedule_local : 'msg context -> delay:float -> (unit -> unit) -> unit
(** Run a local action on this process after [delay] sim-time units,
    unless the process crashes first. *)

(** {1 External control (harness side)} *)

val now : 'msg t -> float

val inject : 'msg t -> at:float -> pid -> ('msg context -> unit) -> unit
(** Schedule an action on a process at an absolute time (e.g. a client
    invoking an operation). Discarded if the process crashed. Accepts
    times in the past, which execute at the current time.
    @raise Invalid_argument on an unknown pid. *)

val crash_at : 'msg t -> pid -> float -> unit
(** Schedule a crash at an absolute simulated time. *)

val restore_at : 'msg t -> pid -> float -> unit
(** Schedule a restart of a crashed process: from that time on it
    receives messages again. The process's OCaml-side state is whatever
    the automaton object still holds — protocol layers model the loss of
    volatile state themselves (cf. [Soda.Server.begin_repair]). Local
    actions and deliveries scheduled while it was crashed stay lost
    (raw transport) or keep being retransmitted (reliable transport). *)

val is_crashed : 'msg t -> pid -> bool

(** {1 Fault plane}

    All fault scheduling is processed through the event queue, so fault
    windows are totally ordered with message events and executions stay
    a pure function of the seed. A never-configured fault plane costs
    the send hot path one boolean load. *)

val set_loss : 'msg t -> float -> unit
(** Drop probability applied immediately to every link. Each physical
    transmission — including reliable-transport retransmissions and
    acks — is lost independently with this probability. A trace of an
    engine with a positive loss is checked with
    [Trace_check.check ~lossy:true].
    @raise Invalid_argument outside [0, 1]. *)

val partition_at : 'msg t -> links:(pid * pid) list -> at:float -> unit
(** Blackhole the directed [links] from simulated time [at] until a
    matching {!heal_at}: every message entering a cut link is lost (and
    counted in {!messages_lost}). Overlapping partitions stack per link.
    Emits a [PartitionStart] trace event when it activates.
    @raise Invalid_argument on an unknown pid. *)

val heal_at : 'msg t -> links:(pid * pid) list -> at:float -> unit
(** Undo one partition layer on [links] at time [at]; emits
    [PartitionHeal]. Messages lost while the partition was up are gone
    (raw) or retransmitted (reliable transport). *)

(** {1 Execution} *)

exception Event_limit_exceeded of int

val run : ?until:float -> ?max_events:int -> 'msg t -> unit
(** Process events one at a time in timestamp order, ties in the order
    they were scheduled — exactly a loop of {!step} — until the queue
    drains, or until simulated time would exceed [until] (events at
    [until] run; later ones stay queued).
    When [until] is given, the clock advances to the horizon on return
    even if the queue ran dry (or the next event lies beyond it)
    earlier: [run ?until] simulates the {e whole} interval, so latency
    measurements against {!now} are not skewed by a lagging clock.
    [max_events] (default 10 million) guards against non-quiescent
    protocols.
    @raise Event_limit_exceeded when the guard trips. *)

val step : 'msg t -> bool
(** Process a single event; [false] when the queue is empty. *)

val pending_events : 'msg t -> int
(** Events queued and not yet dispatched. On the reliable transport a
    pending send has a queued retransmission timer only once it is
    armed (a copy or ack lost, dropped or late; see {!Channel}); a send
    whose ack is on time never has one, and its ack is no event. *)

(** {1 Statistics and traces} *)

val messages_sent : 'msg t -> int
(** Physical transmissions: protocol sends, duplicates, and — under the
    reliable transport — retransmissions and acks. *)

val messages_delivered : 'msg t -> int
(** Messages handed to a protocol handler. Excludes drops at a crashed
    destination, fault-plane losses, and (reliable transport) duplicate
    arrivals suppressed by the channel's dedup. *)

val messages_dropped : 'msg t -> int
(** Messages that reached a crashed (or handler-less) destination.
    Distinct from {!messages_lost}: a drop happens at delivery time
    because of the {e endpoint}'s state, a loss at send time because of
    the {e link}'s. A reliable-transport ack is accounted when it is
    sent: it counts as dropped when the data's sender is crashed at
    that moment (the send is discharged all the same). *)

val messages_lost : 'msg t -> int
(** Physical transmissions eaten by the fault plane (drop probability or
    an active partition). *)

val events_executed : 'msg t -> int
(** Total events dispatched over the engine's lifetime — deliveries,
    drops, local actions, injections, crash/restore transitions,
    fault-plane control events, retransmission timers and late acks.
    Only armed timers and late acks are dispatched (see
    {!pending_events}), so on the reliable transport a delivery whose
    copy and ack are both on time costs one event, the data. *)

val messages_data : 'msg t -> int
(** Protocol-level sends the [classify] discriminator judged
    data-bearing. Counts logical sends (one per {!send} call, regardless
    of duplication or retransmission); 0 when [classify] was not given. *)

val messages_meta : 'msg t -> int
(** Protocol-level sends judged metadata-only by [classify]; 0 when
    [classify] was not given. *)

val payload_units : 'msg t -> int
(** Sum of [weigh] over every protocol-level send (counted once per
    {!send} call, like {!messages_data}); 0 when [weigh] was not given.
    [payload_units / messages_sent] is the mean coalescing factor of a
    batching plane. *)

val acks_sent : 'msg t -> int
(** Ack transmissions on the reliable transport: one per data arrival
    at a live destination, fresh or duplicate, so it equals
    {!messages_delivered} + {!duplicates_suppressed}. Subset of
    {!messages_sent}. 0 on the raw transport. *)

(** {2 Reliable-transport counters (0 on the raw transport)} *)

val retransmissions : 'msg t -> int
val duplicates_suppressed : 'msg t -> int

val sends_abandoned : 'msg t -> int
(** Sends that hit the channel's retry cap — each is a breach of the
    reliable abstraction; a chaos harness should assert this stays 0. *)

val channel_in_flight : 'msg t -> int
[@@lint.allow "X1: state probe — channel tests assert nothing is left in \
               flight"]
(** Registered sends not yet acked or abandoned (e.g. messages destined
    to a process that stayed crashed). *)

val reliable_transport : 'msg t -> bool
(** [true] iff the engine was created with [~transport:(`Reliable _)].
    Protocol layers use this to arm recovery behaviour (e.g. client
    retries) that only makes sense when sends are retransmitted. *)

type event =
  | Sent of { time : float; src : pid; dst : pid }
      (** One physical transmission (including retransmissions and, on
          the reliable transport, acks — an ack from the data's receiver
          appears as a [Sent] in the reverse direction). *)
  | Delivered of { time : float; src : pid; dst : pid }
      (** Physical arrival at a live destination. On the reliable
          transport this includes duplicate data packets (suppressed
          before the handler) and acks; an ack's [Delivered] (or
          [Dropped], at a crashed sender) is recorded right after its
          [Sent], at transmission time. *)
  | Dropped of { time : float; src : pid; dst : pid }
  | Lost of { time : float; src : pid; dst : pid }
      (** The fault plane ate a transmission on this link. *)
  | Crashed of { time : float; pid : pid }
  | Restored of { time : float; pid : pid }
  | PartitionStart of { time : float; links : (pid * pid) list }
  | PartitionHeal of { time : float; links : (pid * pid) list }

val trace_events : 'msg t -> event list
(** Chronological event log; empty unless [trace] was set. *)

val pp_event : name:(pid -> string) -> Format.formatter -> event -> unit
