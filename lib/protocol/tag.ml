type t = { z : int; w : int }

let initial = { z = 0; w = -1 }

let make ~z ~w =
  if z < 0 then invalid_arg "Tag.make: negative sequence number";
  { z; w }

let next t ~w = { z = t.z + 1; w }

let compare a b =
  match Int.compare a.z b.z with 0 -> Int.compare a.w b.w | c -> c

let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let max a b = if a >= b then a else b

(* Writer ids are process ids, capped at 2^20 - 1 by the simulator
   (see Simnet.Engine.reserve), so w + 1 fits 21 bits and z gets the
   remaining 41 — enough for ~2 trillion writes. *)
let max_packed_z = 0x1FF_FFFF_FFFF
let max_packed_w = 0xFFFFF

let pack t =
  if
    Stdlib.( > ) t.z max_packed_z
    || Stdlib.( < ) t.w (-1)
    || Stdlib.( > ) t.w max_packed_w
  then invalid_arg "Tag.pack: tag out of packing range";
  (t.z lsl 21) lor (t.w + 1)

let pp ppf t = Format.fprintf ppf "(%d,%d)" t.z t.w
let to_string t = Format.asprintf "%a" pp t
