(* X1 fixture: a functor's result signature; its instance in X1_use
   uses one value. *)

module Make (S : sig
  val base : int
end) : sig
  val used : int -> int
  val dead : int -> int (* no instance references it: X1 *)
end
