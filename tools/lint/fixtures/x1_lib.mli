(* X1 fixture: one export per way X1 can judge it. *)

val dead : int -> int
(* referenced by no other unit: X1 *)

val via_alias : int -> int
(* used only through [module L = X1_lib] in X1_use *)

val oracle : int -> int [@@lint.allow "X1: fixture — a test-only oracle"]
val oracle_bare : int -> int [@@lint.allow "X1"]
