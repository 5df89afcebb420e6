(* X1 fixture: a signature that X1_inc's interface includes. *)

module type S = sig
  val used : int -> int
  val dead : int -> int
end
