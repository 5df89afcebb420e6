(* X1 fixture: an export used only as a functor argument in X1_use. *)

val step : int -> int
