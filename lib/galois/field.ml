(** The field interface shared by GF(2{^8}) and GF(2{^16}).

    Elements are small non-negative [int]s (the representation both
    implementations use), which lets generic code over either field — in
    particular {!Matrix_gen} — stay allocation-free. *)

module type S = sig
  type t = int

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val inv : t -> t
  val is_zero : t -> bool
  val equal : t -> t -> bool
  val alpha_pow : int -> t
  (** Powers of a fixed primitive element; defined for any integer
      exponent. *)
end
