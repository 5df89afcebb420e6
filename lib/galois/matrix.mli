(** Dense matrices over GF(2{^8}).

    Row-major, immutable from the outside (constructors copy, accessors
    return fresh data). Sized for erasure-coding uses: dimensions up to a
    few hundred, where Gauss-Jordan elimination is entirely adequate. *)

type t

exception Singular
(** Raised by {!invert} and {!solve} when the matrix is not invertible. *)

val create : rows:int -> cols:int -> (int -> int -> Gf.t) -> t
(** [create ~rows ~cols f] builds the matrix with entry [f i j] at row [i],
    column [j].
    @raise Invalid_argument if either dimension is non-positive. *)

val of_rows : Gf.t array array -> t
(** Builds from row arrays, which must be non-empty and rectangular; the
    arrays are copied.
    @raise Invalid_argument on a ragged or empty input. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Gf.t
(** [get m i j] is the entry at row [i], column [j]; bounds-checked. *)

val row : t -> int -> Gf.t array
(** A copy of row [i]. *)

val equal : t -> t -> bool

val mul : t -> t -> t
(** Matrix product.
    @raise Invalid_argument on mismatched inner dimensions. *)

val mul_vec : t -> Gf.t array -> Gf.t array
(** [mul_vec m v] is the matrix-vector product [m v].
    @raise Invalid_argument when [Array.length v <> cols m]. *)

val transpose : t -> t

val select_rows : t -> int array -> t
(** [select_rows m idx] stacks rows [idx.(0)], [idx.(1)], ... of [m]. *)

val invert : t -> t
(** Inverse of a square matrix by Gauss-Jordan elimination with partial
    pivoting (any non-zero pivot works in a field).
    @raise Singular when not invertible.
    @raise Invalid_argument when not square. *)

val solve : t -> Gf.t array -> Gf.t array
(** [solve a b] returns the [x] with [a x = b] for square [a].
    @raise Singular when [a] is not invertible. *)

val rank : t -> int
(** Rank by elimination on a scratch copy. *)

val pp : Format.formatter -> t -> unit
