(** Atomicity (linearizability) checking for register histories.

    Two independent checkers are provided.

    {!check_tagged} verifies the sufficient condition of Lemma 2.1 in the
    paper, using the tags the protocol itself associates with operations:
    it builds the partial order "[pi < phi] iff [tag pi < tag phi], or
    tags are equal and [pi] is the write and [phi] a read" and verifies
    properties P1 (real-time order respected), P2 (writes totally
    ordered, i.e. write tags unique) and P3 (a read returns the value of
    the write whose tag it carries, or the initial value for the initial
    tag). This is exact for tag-based protocols and runs in
    O(m log m): P1 is decided by a plane sweep over the operations in
    invocation order against the maximum tag of the operations already
    responded. {!check_tagged_quadratic} is the original pairwise P1
    scan, retained as a differential-testing oracle.

    {!linearizable_by_value} is a protocol-agnostic exhaustive search in
    the style of Wing & Gong: it asks whether {e any} total order of the
    completed operations is consistent with real time and with register
    semantics, looking only at values. It assumes distinct writes write
    distinct values (the standard assumption for black-box register
    checking) and is exponential in the worst case — use it on small
    histories to cross-validate the tag checker. *)

type violation = {
  what : string;  (** Human-readable description of the failed property. *)
  culprits : int list  (** Operation ids involved. *)
}

val pp_violation : Format.formatter -> violation -> unit

val check_tagged :
  ?initial_value:bytes -> History.record list -> (unit, violation) result
(** [check_tagged records] checks Lemma 2.1 over the {e completed}
    operations in [records]; incomplete operations contribute only as
    potential writers of tags that completed reads returned.
    [initial_value] (default empty) is the register's initial value,
    associated with {!Tag.initial}. *)

val check_tagged_quadratic : History.record list -> (unit, violation) result
[@@lint.allow "X1: test oracle — check_tagged's P1 sweep is differentially \
               tested against this pairwise scan"]
(** As {!check_tagged} with the empty initial value, but deciding P1
    with the original O(m{^2}) pairwise scan. The two must agree on the verdict for every history
    (the reported culprit pair may differ); the differential tests
    enforce this. Prefer {!check_tagged}. *)

val linearizable_by_value : initial_value:bytes -> History.record list -> bool
[@@lint.allow "X1: test oracle — the exhaustive search the tag-based \
               checker is validated against"]
(** Exhaustive linearizability check over completed operations.
    @raise Invalid_argument on histories of more than 62 completed
    operations (the search is memoized on a bitmask). *)
