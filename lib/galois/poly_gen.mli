(** Polynomials over an arbitrary field of the {!Field.S} shape,
    instantiated by the Reed-Solomon codec ({!Erasure.Rs_bch_gen}) at
    its symbol field. Every operation allocates a fresh result and never
    mutates its inputs. *)

module Make (F : Field.S) : sig
  type t
  (** Coefficients lowest degree first, with no trailing zero: the zero
      polynomial has no coefficients. *)

  val zero : t
  val one : t

  val of_coeffs : F.t array -> t
  (** Lowest degree first; trailing zeros are trimmed. *)

  val of_list : F.t list -> t
  (** As {!of_coeffs}. *)

  val monomial : int -> F.t -> t
  (** [monomial d c] is [c x^d]. @raise Invalid_argument when [d < 0]. *)

  val degree : t -> int
  (** [-1] for the zero polynomial. *)

  val is_zero : t -> bool

  val coeff : t -> int -> F.t
  (** [coeff p i] is the coefficient of [x^i], zero beyond the degree.
      @raise Invalid_argument when [i < 0]. *)

  val equal : t -> t -> bool
  [@@lint.allow "X1: test oracle — the ring-law and interpolation tests \
                 compare polynomials through it"]

  val add : t -> t -> t
  (** Also subtraction: the fields here have characteristic 2. *)

  val mul : t -> t -> t

  val div_mod : t -> t -> t * t
  (** Quotient and remainder. @raise Division_by_zero on the zero
      divisor. *)

  val rem : t -> t -> t
  (** [snd (div_mod num den)]. *)

  val eval : t -> F.t -> F.t

  val derivative : t -> t
  (** The formal derivative. *)

  val truncate : int -> t -> t
  (** [truncate d p] keeps the coefficients of [x^0 .. x^(d-1)].
      @raise Invalid_argument when [d < 0]. *)

  val interpolate : (F.t * F.t) array -> t
  [@@lint.allow "X1: test oracle — Lagrange interpolation is the reference \
                 the Reed-Solomon message-recovery test decodes against"]
  (** The unique polynomial of degree below [n] through [n] points with
      distinct abscissae.
      @raise Invalid_argument on no points or a repeated abscissa. *)
end
