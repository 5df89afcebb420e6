(* P1 fixture: polymorphic compare at a non-immediate (record) type. *)
type pair = { left : int; right : int }

let same (x : pair) (y : pair) = x = y

(* [List.sort_uniq] is judged by its comparator alone: a polymorphic
   [compare] over pairs is reported on [compare] itself, once, and a
   dedicated comparator is not reported at any element type. *)
let canon (l : (int * int) list) = List.sort_uniq compare l
let sorted (l : int list) = List.sort_uniq Int.compare l
let canon_pairs (l : (int * int) list) =
  List.sort_uniq (fun (a, b) (c, d) -> match Int.compare a c with 0 -> Int.compare b d | n -> n) l
