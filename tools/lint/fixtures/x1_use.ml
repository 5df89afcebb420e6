(* X1 fixture: the uses that never spell an export's own path. *)

module type STEP = sig
  val step : int -> int
end

module Twice (S : STEP) = struct
  let run x = S.step (S.step x)
end

(* X1_lib.via_alias, only through an alias *)
module L = X1_lib

let via = L.via_alias 1

(* X1_arg.step, only because Twice needs it *)
module T = Twice (X1_arg)

let twice = T.run 2

(* X1_fun.Make.used, only through an instance *)
module F = X1_fun.Make (struct
  let base = 1
end)

let shifted = F.used 2

(* X1_inc.used, declared through an included signature *)
let included = X1_inc.used 3
