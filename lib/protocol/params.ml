type t = { n : int; f : int; e : int }

let make ~n ~f ?(e = 0) () =
  if n < 1 then invalid_arg "Params.make: need at least one server";
  if f < 0 || 2 * f > n - 1 then
    invalid_arg
      (Printf.sprintf "Params.make: need 0 <= f <= (n-1)/2, got n=%d f=%d" n f);
  if e < 0 then invalid_arg "Params.make: negative e";
  if n - f - (2 * e) < 1 then
    invalid_arg
      (Printf.sprintf "Params.make: n - f - 2e must be >= 1, got n=%d f=%d e=%d"
         n f e);
  { n; f; e }

let n t = t.n
let f t = t.f
let e t = t.e
let k_soda t = t.n - t.f - (2 * t.e)
let k_cas t = t.n - (2 * t.f)
let majority t = (t.n / 2) + 1
let cas_quorum t = (t.n + k_cas t + 1) / 2
let fmax ~n = (n - 1) / 2
