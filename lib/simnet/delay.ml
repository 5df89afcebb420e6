type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of { mean : float; cap : float }
  | Per_link of (src:int -> dst:int -> t)

let epsilon = 1e-9

let constant d =
  if d < 0. then invalid_arg "Delay.constant: negative delay";
  Constant d

let uniform ~lo ~hi =
  if lo < 0. || hi < lo then invalid_arg "Delay.uniform: bad range";
  Uniform (lo, hi)

let exponential ~mean ~cap =
  if mean <= 0. || cap < mean then invalid_arg "Delay.exponential: bad params";
  Exponential { mean; cap }

let per_link f = Per_link f

(* Peel [Per_link] wrappers down to a concrete distribution. *)
let rec resolve t ~src ~dst =
  match t with Per_link f -> resolve (f ~src ~dst) ~src ~dst | t -> t

(* [draw] is deliberately non-recursive (the [Per_link] indirection is
   peeled by [resolve] first) and avoids [Float.min]/[Float.max] so the
   whole sampling chain, [Rng.float] included, inlines into the engine's
   send paths when modules are compiled without -opaque — otherwise every
   hop boxes a handful of intermediate floats on the simulator's hottest
   path. The comparisons are safe because no distribution can produce a
   NaN. *)
let[@inline] draw t rng ~src ~dst =
  let t = match t with Per_link _ -> resolve t ~src ~dst | t -> t in
  let d =
    match t with
    | Constant d -> d
    | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
    | Exponential { mean; cap } ->
      let d = Rng.exponential rng ~mean in
      if d > cap then cap else d
    | Per_link _ -> assert false
  in
  if d < epsilon then epsilon else d

let upper_bound = function
  | Constant d -> Some (Float.max epsilon d)
  | Uniform (_, hi) -> Some (Float.max epsilon hi)
  | Exponential { cap; _ } -> Some cap
  | Per_link _ -> None
