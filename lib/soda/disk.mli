(** A server's checksummed fragment store.

    One [(tag, coded element)] pair — SODA's whole per-server storage —
    guarded by a content checksum computed at {!store} time and verified
    on every {!read}. Bit-rot (a payload silently changing under the
    checksum, injected by {!rot} / [Deployment.corrupt_server]) is
    therefore detected at the first subsequent access, and the store
    flips to {e quarantined}: reads keep failing until fresh bytes are
    written through {!store} (a newer write adopted by the server, a
    crash-repair, or the scrubber's targeted fragment repair), which
    recomputes the checksum and lifts the quarantine.

    Checksumming is pure local arithmetic (no messages, no randomness),
    so it is always on — with healing disabled a deployment's traces
    stay bit-identical, it just never rots. *)

module Fragment = Erasure.Fragment
module Tag = Protocol.Tag

type t

val create : tag:Tag.t -> fragment:Fragment.t -> t

val store : t -> tag:Tag.t -> fragment:Fragment.t -> unit
(** Replace the stored pair, recompute the checksum, clear any
    quarantine — every legitimate write path heals rot by overwrite. *)

val tag : t -> Tag.t
(** The stored tag. Tags are metadata kept outside the checksummed
    payload; rot does not invalidate them, so a quarantined server still
    answers tag queries. *)

val read : t -> [ `Ok of Fragment.t | `Corrupt ]
(** Verify-then-read. [`Corrupt] marks the store quarantined (sticky
    until the next {!store}). *)

val fragment_unchecked : t -> Fragment.t
(** The raw stored fragment, bypassing verification — for tests and
    repair-reply accounting only. *)

val quarantined : t -> bool

val verify : t -> bool
(** Non-mutating checksum check ([true] = payload matches). *)

val rot : t -> seed:int -> unit
(** Fault injection: deterministically garble the stored payload
    {e without} updating the checksum (see {!Fragment.corrupt}). *)

val checksum : Fragment.t -> int
[@@lint.allow "X1: test oracle — tests recompute a fragment's checksum to \
               check what the disk stored"]
(** The two-lane FNV-1a payload checksum, exposed for tests. *)
