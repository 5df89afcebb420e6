type t = { n : int }

exception Insufficient_fragments

let make ~n =
  if n < 1 || n > 255 then invalid_arg "Replication.make: invalid n";
  { n }

let n t = t.n

(* All n fragments carry the same bytes, and nothing downstream mutates
   a fragment's payload in place ([Fragment.corrupt] copies), so the one
   framed buffer is shared: encoding is O(|value|) regardless of n
   instead of n copies. *)
let encode t value =
  let framed = Splitter.frame ~k:1 value in
  Array.init t.n (fun i -> Fragment.make ~index:i ~data:framed)

let decode t frags =
  match frags with
  | [] -> raise Insufficient_fragments
  | f :: _ ->
    if Fragment.index f >= t.n then
      invalid_arg "Replication.decode: index out of range";
    Splitter.unframe (Fragment.data f)
