(** The trivial [n, 1] MDS code: full replication.

    Every fragment is a complete copy of the (framed) value, so any single
    fragment suffices to decode. Used as the storage scheme of the ABD
    baseline, and as the degenerate point of cost comparisons. *)

type t

val make : n:int -> t
(** @raise Invalid_argument unless [1 <= n <= 255]. *)

val n : t -> int

val encode : t -> bytes -> Fragment.t array
(** All [n] fragments share one framed payload buffer (one copy of the
    value total, not [n]); treat fragment data as immutable, as every
    codec does — {!Fragment.corrupt} already copies. *)

exception Insufficient_fragments

val decode : t -> Fragment.t list -> bytes
(** Decodes from the first fragment.
    @raise Insufficient_fragments on an empty list. *)
