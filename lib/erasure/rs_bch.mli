(** Systematic Reed-Solomon codes with errors-and-erasures decoding.

    This is the one Reed-Solomon codec of the library ({!Rs_bch16} is
    the same code over GF(2{^16})), behind every protocol's {!Mds.t}.
    For SODA{_err}, with [k = n - f - 2e], it corrects any pattern of
    up to [f] erasures (missing fragments) {e and} up to [e] silent
    corruptions among the fragments that are present, per stripe, as
    long as [2*errors + erasures <= n - k]. SODA and CAS need only an
    MDS code with [k = n - f]: given exactly [k] fragments, decoding
    is a plain erasure decoder (the message is solved from them, with
    no check left over and so no [Decode_failure]).

    Construction is the classical BCH view of RS codes: the generator
    polynomial is [g(x) = (x - alpha)(x - alpha^2)...(x - alpha^(n-k))]
    and a codeword is [c(x) = x^(n-k) M(x) + (x^(n-k) M(x) mod g)], so
    the message occupies coordinates [n-k .. n-1] (systematic part).
    Decoding first solves the message from [k] present fragments by
    matrix sweeps and checks every other present fragment against it.
    Stripes that fail the check are decoded by locate-then-erase: one
    of them goes through errors-and-erasures correction (syndromes, the
    erasure locator, the error locator by the Sugiyama (extended-Euclid)
    algorithm on the modified syndrome polynomial, Chien search for the
    error positions and Forney's formula for their magnitudes), the
    fragments it corrects are treated as erased for a second sweep, and
    only stripes still failing that check are corrected one by one. *)

type t

val make : n:int -> k:int -> t
(** @raise Invalid_argument unless [1 <= k <= n <= 255]. *)

val encode : t -> bytes -> Fragment.t array
(** Encode into [n] fragments at indices [0 .. n-1]. The framed value
    is column-major ({!Splitter}): message fragment [n-k+j] is its
    [j]-th contiguous slice verbatim, and so carries message symbol [j]
    of every stripe. *)

exception Insufficient_fragments of { needed : int; got : int }

exception Decode_failure of string
(** Raised when the received word is not within the guaranteed correction
    radius (e.g. too many corrupt fragments): the locator has the wrong
    number of roots in range, or correction does not yield a codeword. *)

val decode : t -> Fragment.t list -> bytes
(** [decode code frags] reconstructs the value. Fragments whose indices
    are absent are treated as erasures; present fragments may be
    corrupted. Reconstruction is guaranteed whenever
    [2*corruptions + erasures <= n - k].

    Decoding is check-gated. The message columns are solved from [k]
    present fragments (present systematic fragments first, read in
    place) by one matrix sweep per missing column, and each of the
    remaining present fragments is re-encoded from them and XORed with
    what was received. Stripes whose residuals are all zero are clean:
    their decoded symbols are the swept columns. If some stripe is
    dirty, the first one runs the per-stripe key-equation solver
    (syndromes, Sugiyama, Chien search and Forney) of
    {!decode_reference}; the present fragments it corrects are dropped
    and the sweep runs again over the stripes from the first to the
    last dirty one. Stripes consistent on the remaining fragments lie
    within the correction radius and take the swept columns; only
    those still dirty run the key-equation solver, in stripe order.

    Cost, with [p] present fragments, [m] of the [k] systematic ones
    missing, and [L] bytes per fragment: a value with no corrupted
    stripe costs about [(m + p - k) * k] byte-table sweeps of [L]
    bytes. One wholly corrupt fragment costs that, plus one scalar
    errors-and-erasures stripe correction, plus a second sweep over
    the dirty span (the whole value). One corrupted symbol costs one
    stripe correction and a one-stripe sweep. Every stripe dirty
    after the second sweep (scattered or over-radius errors) adds one
    scalar correction.

    Output and exceptions are those of {!decode_reference} for every
    input.
    @raise Insufficient_fragments when fewer than [k] distinct indices
    are present.
    @raise Decode_failure when the error pattern is detectably beyond the
    correction radius.
    @raise Invalid_argument on out-of-range indices or ragged sizes. *)

val decode_reference : t -> Fragment.t list -> bytes
[@@lint.allow "X1: test oracle — the check-gated decode is differentially \
               tested against it"]
(** The all-stripes decoder: every stripe goes through the scalar
    errors-and-erasures correction. Retained as the differential-testing
    oracle for {!decode}, with which it agrees on every input; not used
    on any production path. Prefer {!decode}. *)
