(** Unified interface over the concrete codecs.

    The protocol layers (SODA, SODA{_err}, CAS/CASGC, ABD) are written
    against this type so that the choice of codec is a configuration
    datum, not a compile-time commitment. An [(n, k)] code splits a value
    into [n] fragments of [1/k] the (framed) size; any [k] fragments
    reconstruct the value.

    Every protocol codes with the one Reed-Solomon family: the
    systematic BCH-form codec of {!Rs_bch} over GF(2{^8}), or its
    GF(2{^16}) form beyond 255 fragments. It is an MDS code, so given
    exactly [k] fragments it is a plain erasure decoder (what SODA and
    CAS need); given more, it also corrects silent fragment corruption
    (what SODA{_err} needs).

    A [t] carries its instance's encode and decode, so no entry point
    dispatches on the symbol width, and both widths raise the two
    exceptions below themselves ({!Rs_bch.Insufficient_fragments} and
    {!Rs_bch16.Insufficient_fragments} are the same exception, and so
    are the [Decode_failure]s). *)

type t

exception Insufficient_fragments of { needed : int; got : int }
(** Raised by {!decode} when fewer than [k] distinct fragments are
    supplied. *)

exception Decode_failure of string
(** Raised by {!decode} when corruption is detected beyond the codec's
    correction radius. *)

val rs_bch : n:int -> k:int -> t
(** Systematic BCH-form Reed-Solomon with errors-and-erasures decoding:
    tolerates any [errors], [erasures] with
    [2*errors + erasures <= n - k]. *)

val rs_bch16 : n:int -> k:int -> t
(** {!rs_bch} over GF(2{^16}): code lengths up to 65535, for systems
    beyond 255 servers. *)

val n : t -> int
(** Number of fragments produced. *)

val k : t -> int
(** Number of fragments needed to reconstruct. *)

val name : t -> string
(** Short human-readable codec name, e.g. ["rs-bch[12,7]"]. *)

val encode : t -> bytes -> Fragment.t array
(** Encode a value into [n] fragments, indices [0 .. n-1]. *)

val decode : t -> Fragment.t list -> bytes
(** Reconstruct the value from fragments. From exactly [k] distinct
    fragments the value is solved with nothing left to check it
    against, so [Decode_failure] is raised only when more than [k] are
    supplied.
    @raise Insufficient_fragments
    @raise Decode_failure *)

val fragment_size : t -> value_len:int -> int
[@@lint.allow "X1: test oracle — the per-fragment bytes storage-cost \
               checks compare measured stores against"]
(** Size in bytes of each fragment for a value of [value_len] bytes. *)
