(** Dense row-major matrices over an arbitrary field of the {!Field.S}
    shape, instantiated by the Reed-Solomon codec ({!Erasure.Rs_bch_gen})
    at its symbol field. Out-of-range dimensions and indices raise
    [Invalid_argument]. *)

module Make (F : Field.S) : sig
  type t

  exception Singular

  val create : rows:int -> cols:int -> (int -> int -> F.t) -> t
  (** [create ~rows ~cols f] has entry [f i j] at row [i], column [j]. *)

  val of_rows : F.t array array -> t
  [@@lint.allow "X1: test oracle — the matrix tests write literal \
                 matrices through it"]
  (** @raise Invalid_argument on no rows or ragged rows. *)

  val identity : int -> t
  [@@lint.allow "X1: test oracle — the inversion tests multiply back to it"]

  val rows : t -> int
  [@@lint.allow "X1: test oracle — the inversion tests size the identity \
                 and bound the rank by it"]

  val get : t -> int -> int -> F.t

  val equal : t -> t -> bool
  [@@lint.allow "X1: test oracle — the inversion tests compare products \
                 through it"]

  val mul : t -> t -> t
  [@@lint.allow "X1: test oracle — the inversion tests multiply a matrix \
                 by its inverse"]

  val select_rows : t -> int array -> t
  [@@lint.allow "X1: test oracle — the MDS tests take k rows of a \
                 Vandermonde matrix through it"]

  val invert : t -> t
  (** Gauss-Jordan. @raise Singular when there is no inverse. *)

  val rank : t -> int
  [@@lint.allow "X1: test oracle — the tests tell a singular matrix and an \
                 MDS row subset by it"]
end
