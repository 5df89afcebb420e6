(** The set of dispersals a server has delivered, keyed by {!Messages.mid}.

    Each origin numbers its dispersals densely from 0 ({!Md}), and MD
    uniformity (Thm 3.1) makes every live server deliver every one of
    them. So the set is kept per origin as a range [\[lo, high)] of
    sequence numbers plus the {e holes} inside it: the sequence numbers
    not delivered yet although a later one was. Arrivals out of order
    open holes and their late copies fill them, so the state is bounded
    by the dispersals in flight, not by the history. Holes among the
    last 62 sequence numbers of an origin are bits beside its marks;
    older ones go to a table. A hole stays only
    when its copies never come: the origin crashed mid-dispersal, or a
    raw-transport copy was lost (DESIGN.md, "State bounded by live
    work").

    The semantics are exactly those of a set of mids: after {!reset}
    nothing is a member, and a late copy of a dispersal delivered
    before the reset is new again. *)

type t

val create : unit -> t
(** An empty set. It holds no per-origin cells until the first {!add}:
    a keyspace keeps one per key and coordinate, and most never see a
    dispersal. *)

val add : t -> Messages.mid -> bool
(** Insert; [true] iff the mid was not already a member. *)

val mem : t -> Messages.mid -> bool
[@@lint.allow "X1: test oracle — the model test checks membership \
               against a plain set through it"]

val reset : t -> unit
(** Remove every member and release the cells, as at {!create}. *)

val cardinal : t -> int
[@@lint.allow "X1: state probe — the model test compares it with a \
               plain set's length"]

val holes : t -> int
[@@lint.allow "X1: state probe — tests bound the holes a run leaves"]
(** Holes over all origins: the dispersals delivered out of order whose
    earlier copies are still missing. *)
