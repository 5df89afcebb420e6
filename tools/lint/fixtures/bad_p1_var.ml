(* P1 fixture: polymorphic compare at a type variable, the one the
   compiler cannot specialize however the callers instantiate it. *)
let rec index_of a x i =
  if i >= Array.length a then -1 else if a.(i) = x then i else index_of a x (i + 1)
