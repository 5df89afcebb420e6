(** The SODA server automaton (Fig. 5 of the paper, plus the server side
    of the message-disperse primitives of Section III).

    Each server stores exactly one [(tag, coded element)] pair — this is
    what gives SODA its [n/(n-f)] total storage cost — plus metadata: the
    set [Rc] of registered reads it is currently serving and the history
    set [H] of [(tag, server, read)] relay announcements, which lets it
    unregister a reader (even a crashed one) once [k] distinct coded
    elements of one tag are known to have been sent (Theorem 5.5). With
    [decode_threshold = k + 2e] the same automaton implements SODA{_err}
    (Fig. 6); coordinates flagged [error_prone] corrupt the element they
    read from local storage when serving a registration, modelling silent
    disk read errors. *)

type t

val create : Config.t -> coordinate:int -> t
(** A server at the given coordinate, holding the coded element of the
    initial value under {!Protocol.Tag.initial}. Registers its initial
    storage with the configuration's cost accountant. *)

val handler : t -> Messages.t Simnet.Engine.context -> src:int -> Messages.t -> unit
(** Message handler to install with {!Simnet.Engine.set_handler}. *)

(** {1 Plane hooks (see {!Plane})} *)

val apply_gossip_entry :
  t -> Messages.t Simnet.Engine.context -> Messages.gossip_entry -> unit
(** Apply one READ-DISPERSE announcement delivered over a keyspace's
    cross-key gossip channel — the same monotone [H] insertion as a
    standalone READ-DISPERSE, so duplicates are harmless. *)

val gossip_live : t -> Messages.gossip_entry -> bool
(** [false] once the entry's read has completed at this server, letting
    a plane's outbox drop it instead of burning wire on it. *)

(** {1 Inspection (tests and reports)} *)

val stored_tag : t -> Protocol.Tag.t

val stored_fragment : t -> Erasure.Fragment.t
[@@lint.allow "X1: state probe — healing tests compare the stored element"]
(** The raw stored coded element, bypassing checksum verification —
    for tests (e.g. byte-identical restoration after a scrub repair). *)

val registered_reads : t -> int list
(** Currently registered read-operation ids. *)

val history_entries : t -> int
[@@lint.allow "X1: state probe — MD tests bound the server's per-tag history"]
(** Total number of tuples in [H]. *)

(** {1 Self-healing plane (see {!Config.healing})} *)

val start_healing : t -> Messages.t Simnet.Engine.context -> unit
(** Arm the failure detector and scrubber tick chains on this server.
    Injected once per server by [Deployment.deploy]; a no-op when the
    configuration has [healing = false]. *)

val corrupt_disk : t -> seed:int -> unit
(** Fault injection: deterministically garble the stored coded element
    without touching its checksum (see {!Disk.rot}). The corruption is
    silent until the next verified read or scrub sweep. *)

val disk_ok : t -> bool
(** [true] iff the store is not quarantined and its checksum verifies —
    the per-server "all corruption healed" quiescence predicate. *)

val set_error_window : t -> (float * float) option -> unit
(** SODAerr: restrict this server's error-prone fault to the sim-time
    window [[start, stop)]. [None] (default) keeps the static always-on
    model of {!Config.t.error_prone}. *)

(** {1 Repair extension (the paper's future work (ii))} *)

val begin_repair : t -> Messages.t Simnet.Engine.context -> op:int -> unit
(** To be invoked (via {!Simnet.Engine.inject}) right after the server's
    process is restored with {!Simnet.Engine.restore_at}: volatile state
    is discarded, the stored element reverts to the initial state, and
    the server starts a crash round of its one recovery collector — the
    same [REPAIR-GET]/[REPAIR-REPLY] round a scrub runs on a quarantined
    store, with a different floor. It refuses quorum duties (deferring
    them) until it again holds an element for the highest tag reported
    by [n - 1 - f] peers, then relays to the reads registered meanwhile
    and answers the deferred queries. The round replaces any round in
    flight, and its retry timer dies with it. [op] is the accounting id
    the repair traffic is charged to (see {!repair_op}). Safety requires
    [n >= 2f + 2e + 1]; see [Deployment.repair_server]. *)

val repair_op : seq:int -> int
(** The accounting id of a register's (or a key's) [seq]-th crash round,
    numbered from 0. Crash rounds and scrub rounds (numbered by the
    server itself) have disjoint ranges above every client op. *)

val repairing : t -> bool
