(** The chaos matrix: SODA over an adversarial network, end to end.

    Each scenario drives a SODA deployment with closed-loop client
    traffic over the reliable-channel transport
    ({!Simnet.Engine.create}[ ~transport]) while the fault plane loses
    messages (drop probability [loss] on every link) and a nemesis
    schedule injects partitions and/or crash-repair cycles, never
    exceeding the [f] budget of simultaneously unavailable servers. The
    run must retain {e liveness} (every invoked operation completes once
    the network quiesces) and {e atomicity} (Lemma 2.1 over the
    recorded history) — the paper's Thms 5.1–5.2 transported to a lossy
    network via the retransmitting substrate.

    The same scenarios back three entry points: the QCheck matrix in
    [test/test_chaos.ml], the [bench/main.exe chaos] smoke/bench, and
    the single-seed replay tool ([soda_replay]) for debugging a failing
    seed with a full event trace. *)

(** The nemesis schedule of a cell: which {!Nemesis} generators run. *)
type faults =
  | No_faults
  | Crashes  (** {!Nemesis.generate}: crash/repair pairs *)
  | Partitions
      (** {!Nemesis.generate_mixed} with every fault window a partition *)
  | Crashes_and_partitions
      (** {!Nemesis.generate_mixed}'s even split of crashes and
          partitions *)
  | Unrepaired_crashes
      (** {!Nemesis.generate_crash_only}: crashes with no nemesis
          [Repair] — only the failure detector can bring the victims
          back *)
  | Bitrot  (** a {!Nemesis.generate_bitrot} corruption stream alone *)
  | Partitions_and_bitrot
      (** [Partitions] with shorter windows (mean downtime 40), then a
          {!Nemesis.generate_bitrot} stream merged over them *)

type scenario = {
  name : string;  (** e.g. ["loss20+part+crash"] — unique within {!matrix} *)
  loss : float;  (** per-transmission drop probability on every link *)
  faults : faults;
  batched : bool;
      (** run SODA on {!Soda.Config.batched_plane} instead of the
          broadcast plane, over the same per-message-ack channel *)
  healing : bool
      (** deploy with {!Soda.Config.healing} on: heartbeat failure
          detector, checksum scrubber and autonomous crash-repair *)
}

val matrix : scenario list
(** Loss p ∈ {0.05, 0.2, 0.4} × [No_faults], [Crashes], [Partitions]
    and [Crashes_and_partitions] (12 cells), plus ["batched20+part"] (the batched message plane under
    20% loss and partitions) and three self-healing cells:
    ["bitrot+scrub"] (silent corruption under 5% loss, healed by the
    scrubber), ["crash-noheal"] (crashes only the failure detector
    repairs) and ["bitrot+loss20+part"] (corruption under 20% loss and
    partitions). *)

val find : string -> scenario option
(** Look up a {!matrix} cell by name. *)

type outcome = {
  scenario : scenario;
  seed : int;
  complete : bool;  (** liveness: every invoked operation responded *)
  atomic : (unit, string) result;
  trace_ok : (unit, string) result;
      (** lossy-model trace axioms ({!Simnet.Trace_check.check});
          trivially [Ok] when the run was not traced *)
  heal_ok : (unit, string) result;
      (** the healing plane's causality axioms over the probe stream
          ({!Protocol.Probe.heal_causality}), checked on every
          [healing] run, traced or not; trivially [Ok] otherwise *)
  ops : int;
  sent : int;
  delivered : int;
  dropped : int;
  lost : int;
  retransmissions : int;
  duplicates_suppressed : int;
  abandoned : int;  (** sends that hit the retry cap — must be 0 *)
  data : int;  (** logical sends carrying coded data *)
  meta : int;  (** logical metadata-only sends *)
  acks : int;  (** standalone ack transmissions *)
  crash_events : int;
  partition_events : int;
  bitrot_events : int;
  scrub_clean : bool;
      (** every server's element passes its checksum at quiescence —
          trivially true in cells without bit-rot *)
  all_live : bool;
      (** no server process crashed at quiescence — the convergence
          predicate of the ["crash-noheal"] cell *)
  heal_stats : Soda.Config.heal_stats;
      (** heartbeat and scrub-sweep counters (zero without healing) *)
  probe : Protocol.Probe.t;
      (** the deployment's probe stream, recorded from deployment on:
          suspicions, rot detections, auto-repairs and heals
          ({!Metrics.heal_counts}) *)
  heal_mttd : float list;
      (** per detected fault episode: injection-to-detection time *)
  heal_mttr : float list;
      (** per healed fault episode: injection-to-restoration time *)
  final_time : float;
      (** simulated time at quiescence: the fixed horizon in a
          [healing] cell, otherwise the last dispatched event. Since
          retransmission timers are lazy ({!Simnet.Channel}), no timer
          left over from an on-time ack pops at the end of a drained
          run: at seeds 1–3 the unhealed cells other than ["loss05"]
          end 57.6–64.4 time units earlier than with eager timers
          (["loss05+crash"] at seed 1: 853.7, was 915.7), with every
          other counter unchanged. *)
  events : Simnet.Engine.event list;  (** [[]] unless traced *)
  message_log : string list;
      (** payload-level delivery/ack log ([[]] unless traced):
          protocol messages rendered through [Soda.Messages.pp] — so
          coalesced gossip envelopes show entry counts and tag/rid
          ranges — and acks the sequence number they acknowledge *)
  name_of : int -> string
}

val ok : outcome -> bool
(** Liveness, atomicity, trace axioms, healing axioms, no abandoned
    sends, all corruption healed at quiescence ([scrub_clean]) and — in
    healing cells — every server back up ([all_live]). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line verdict + counters (no event log). *)

val run : ?trace:bool -> scenario -> seed:int -> outcome
(** Execute one cell at one seed: [n = 5], [f = 1], a horizon of 600,
    64-byte values and {!Simnet.Channel.default}; 2 writers and 2
    readers in closed loop. A [batched] scenario
    deploys SODA on {!Soda.Config.batched_plane}. A [healing] scenario runs the
    engine to a fixed quiescence horizon ([horizon + 600]) instead of
    draining the queue — the heartbeat and scrub tick chains never
    stop; unhealed cells keep the drain-the-queue termination and
    their bit-identical traces. Deterministic: equal arguments give
    bit-identical outcomes. *)
