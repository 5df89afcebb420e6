(** Instrumentation events emitted by protocol automata.

    The harness uses these to measure quantities that appear in the
    paper's analysis but are not part of any message: when a reader was
    first registered by some server and when the last non-faulty server
    unregistered it (the window [T1, T2] that defines δ{_w}, Section V),
    and how many relays each read triggered.

    Probes are observation only: no protocol decision reads one. A
    probe keeps nothing until a consumer calls {!record}; from then on
    it appends every event, and analysis folds over the log after the
    run. A deployment that nobody records (the sharded keyspace's keys,
    the benchmark) emits into a probe that stays two words. Every
    reader of the log raises [Invalid_argument] on a probe that is not
    recording, so a consumer that forgot to opt in fails instead of
    reading an empty stream. *)

type event =
  | Registered of { rid : int; server : int; time : float }
      (** Server [server] added read [rid] to its registered set. *)
  | Unregistered of { rid : int; server : int; time : float }
      (** Server [server] removed read [rid] (completion or k-threshold). *)
  | Relayed of { rid : int; server : int; tag : Tag.t; time : float }
      (** Server sent a coded element to the reader of [rid]. *)
  | Stored of { server : int; tag : Tag.t; time : float }
      (** Server replaced its stored (tag, coded element). *)
  | Gc of { server : int; tag : Tag.t; time : float }
      (** (CASGC) server garbage-collected the element of [tag]. *)
  | Repair_started of { server : int; time : float }
      (** (repair extension) a restored server began rebuilding its
          coded element. *)
  | Repaired of { server : int; tag : Tag.t; time : float }
      (** (repair extension) the server holds a fresh element again and
          resumed answering quorum queries. *)
  | Crash_injected of { server : int; time : float }
      (** (healing plane) the harness crashed [server] — the start point
          of a crash MTTD/MTTR episode. Only emitted when healing is
          armed, so unhealed deployments stay probe-identical. *)
  | Rot_injected of { server : int; time : float }
      (** (healing plane) the harness silently corrupted [server]'s
          stored fragment — the start point of a rot episode. *)
  | Suspected of { target : int; by : int; time : float }
      (** (healing plane) [by]'s failure detector cast a suspicion vote
          against [target]; the first one after a [Crash_injected] marks
          detection (MTTD). *)
  | Auto_repair of { server : int; time : float }
      (** (healing plane) the deployment launched a detector-triggered
          crash-repair of [server]. *)
  | Rot_detected of { server : int; time : float }
      (** (healing plane) a checksum verification (scrub sweep or read
          path) caught the corruption on [server]; the fragment is now
          quarantined. *)
  | Scrub_repaired of { server : int; tag : Tag.t; time : float }
      (** (healing plane) the scrubber restored [server]'s quarantined
          fragment from peer fragments (the end of a rot episode — the
          other terminator is a plain [Stored] from a newer write). *)

type t

val create : unit -> t
(** A probe that does not record. *)

val record : t -> unit
(** Keep every event emitted from now on. Calling it again does
    nothing more. *)

val emit : t -> event -> unit
(** Append the event if the probe is recording; drop it otherwise. *)

val events : t -> event list
(** In emission order, since {!record}. Raises [Invalid_argument] if the
    probe is not recording, as do all the readers below. *)

val chronological : t -> event list
(** In time order: {!events} stably sorted by their [time]. The two
    orders differ only where a [Crash_injected] was emitted ahead of the
    crash it schedules. *)

val registration_window :
  ?is_crashed:(int -> bool) -> t -> rid:int -> (float * float) option
(** [(T1, T2)]: first registration and last unregistration of read [rid];
    [None] if it was never registered. [T2] is [infinity] when some
    registration at a server for which [is_crashed] (default: nobody) is
    false was never matched by an unregistration — crashed servers are
    exempt, as in the paper's definition of the window. *)

val relays_of : t -> rid:int -> int
(** Number of coded-element relays sent to the reader of [rid]. *)

val registrations_balanced : t -> crashed:(int -> bool) -> bool
[@@lint.allow "X1: test oracle — Theorem 5.5's check over a run's probes"]
(** Theorem 5.5 check: every registration at a server that did not crash
    is eventually matched by an unregistration at that server. *)

val heal_causality : t -> (unit, string) result
(** The healing plane's causality axioms over the {!chronological}
    stream, where a server counts as crashed from its [Crash_injected]
    to its next [Repair_started]:
    - an [Auto_repair] targets a crashed server that some detector
      [Suspected] since it crashed (the detector, not the nemesis,
      pulled the trigger);
    - a [Suspected] comes from a live server;
    - a [Rot_detected] comes from a live server;
    - a heal ([Scrub_repaired], or the [Repaired] that ends a crash
      repair) comes from a live server.
    [Error] names the first offending probe (0-based, in time order).
    Meaningful only
    on a healing deployment, the one kind that emits [Crash_injected]. *)
