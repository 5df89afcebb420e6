(* O1 fixture: the applications and escapes that O1_lib's options see. *)

let dead = O1_lib.dead ()
let partly = O1_lib.partly ~depth:2 ()

let supplied =
  let depth = 3 in
  O1_lib.supplied ~depth ()

(* O1_lib.forwarded's ?depth, only through forwarding *)
let wrap ?depth () = O1_lib.forwarded ?depth ()
let forwarded = wrap ()

(* O1_lib.aliased, used other than as an application's head *)
let alias = O1_lib.aliased
let aliased = alias ()

(* O1_lib.passed, passed as an argument *)
let passed = List.map (fun f -> f ()) [ O1_lib.passed ]
let allowed = O1_lib.allowed ()
