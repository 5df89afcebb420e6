(* O1 fixture: one optional parameter per way O1 can judge it. *)

val dead : ?depth:int -> unit -> int
(* no application supplies ?depth: O1 *)

val partly : ?depth:int -> ?width:int -> unit -> int
(* ?depth is supplied, ?width is not: O1 *)

val supplied : ?depth:int -> unit -> int
val forwarded : ?depth:int -> unit -> int
(* supplied only through [?depth] forwarding in O1_use *)

val aliased : ?depth:int -> unit -> int
(* O1_use aliases it, so every option counts as supplied *)

val passed : ?depth:int -> unit -> int
(* O1_use passes it as an argument *)

val allowed : ?depth:int -> unit -> int
[@@lint.allow "O1: fixture — only a test supplies ?depth"]
