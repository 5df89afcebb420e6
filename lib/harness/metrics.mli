(** Extracting the paper's metrics from a run. *)

module History = Protocol.History

type stats = { count : int; mean : float; max : float; min : float }

val stats_of : float list -> stats
(** All-zero stats for an empty list. *)

type summary = {
  algorithm : string;
  ops_total : int;
  ops_complete : int;
  liveness : bool;  (** every invoked operation completed *)
  atomic : bool;  (** tag-based Lemma 2.1 check passed *)
  write_cost : stats;  (** per completed write, value units *)
  read_cost : stats;  (** per completed read, value units *)
  storage_max : float;  (** worst-case total storage, value units *)
  storage_final : float;
      (** total storage at quiescence — CASGC's steady state after
          garbage collection, which is what the paper's formula
          n/(n-2f)(δ+1) describes (the peak additionally includes the
          in-flight pre-written version) *)
  write_latency : stats;
  read_latency : stats;
  messages_sent : int;
      (** physical transmissions, incl. duplicates / retransmits / acks *)
  messages_data : int;  (** logical sends carrying coded data *)
  messages_meta : int;  (** logical sends carrying metadata only *)
  read_restarts : int
      (** CASGC reader restarts (see {!Runner.result.read_restarts}) *)
}

val summarize : Runner.result -> summary

val reads_with_delta_w : Runner.result -> (int * int * float) list
(** For every completed read: (rid, δ{_w}, data cost in value units),
    δ{_w} being the number of writes initiated during the read's
    registration window [T1, T2] (Section V of the paper); reads never
    registered are skipped. Reads whose window never closed at a
    non-crashed server count every write from T1 on. Empty for runs
    without probes. *)

val concurrent_writes : Runner.result -> rid:int -> slack:float -> int option
[@@lint.allow "X1: test oracle — the sound concurrency count Thm 5.6's read \
               cost bound is checked against"]
(** Writes that could have delivered a coded element inside read [rid]'s
    registration window [T1, T2]: invoked no later than [T2] and either
    incomplete or responding within [slack] before [T1] (a completed
    write's last straggler delivery trails its response by at most two
    maximum message delays, so pass [slack = 2 * delay cap]). This is the
    sound variant of δ{_w} — the paper's Theorem 5.6 bound
    [n/(n-f) * (count + 1)] provably holds for it, whereas δ{_w} as
    literally defined (initiations inside [T1, T2]) misses writes that
    start just before T1 and deliver inside the window. *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Self-healing counts} *)

type heal_counts = {
  suspicions : int;  (** [Suspected] probes: suspicion votes cast *)
  scrub_hits : int;
      (** [Rot_detected] probes: checksum mismatches found by a scrub
          sweep or the read path *)
  auto_repairs : int;
      (** [Auto_repair] probes: detector-triggered crash-repairs
          launched *)
  scrub_repairs : int
      (** [Scrub_repaired] probes: quarantined fragments restored from
          peer fragments *)
}

val heal_counts : Protocol.Probe.t -> heal_counts
(** The healing plane's events, counted from a deployment's probe
    stream. *)

(** {1 Self-healing episodes (MTTD / MTTR)} *)

type heal_episode = {
  server : int;
  fault : [ `Crash | `Rot ];
  injected_at : float;
  detected_at : float option;
      (** first [Suspected] (crash) / [Rot_detected] (rot) after the
          injection; [None] if healed before any detection (e.g. a rot
          overwritten by a write before a scrub sweep saw it) *)
  healed_at : float option
      (** [Repaired] for a crash; first [Scrub_repaired] or [Stored]
          (an overwriting write recomputes the checksum) for a rot.
          [None] if the fault was still open at the end of the run. *)
}

val heal_episodes : Protocol.Probe.t -> heal_episode list
(** Reconstruct every fault's detect/heal lifecycle from a deployment's
    probe stream ({!Protocol.Probe.chronological}, so a crash scheduled
    ahead opens its episode at its own time), in injection order.
    Requires the healing-armed probes
    ([Crash_injected] is only emitted when {!Soda.Config.healing} is
    armed); on an unhealed run the list contains only rot episodes. *)

val heal_mttd : heal_episode list -> float list
(** Time-to-detect for every detected episode, in injection order. *)

val heal_mttr : heal_episode list -> float list
(** Time-to-repair for every healed episode, in injection order. *)

(** {1 Sharded-run economics} *)

val sharded_msgs_per_op : Runner.sharded_result -> float
(** Physical sends per scheduled operation — the headline number the
    shared plane drives down as the key count grows. *)

val sharded_units_per_msg : Runner.sharded_result -> float
(** Mean {!Soda.Messages.logical_units} per physical send: the frame
    coalescing factor (1.0 means no sharing, higher means gossip
    entries and relays from many keys rode the same frame). *)
