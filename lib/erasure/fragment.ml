(* A fragment owns its payload buffer: encode allocates one buffer per
   fragment, and messages and server stores carry the fragment itself,
   so no payload bytes are copied between encode and decode. *)

type t = { index : int; data : bytes }

let make ~index ~data =
  if index < 0 then invalid_arg "Fragment.make: negative index";
  { index; data }

let index f = f.index
let size f = Bytes.length f.data
let data f = f.data

let corrupt f ~seed =
  (* splitmix64-style mixing; mask forced non-zero so that every byte is
     guaranteed to change. *)
  let mix state =
    let state = Int64.add state 0x9e3779b97f4a7c15L in
    let z = state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    (state, Int64.logxor z (Int64.shift_right_logical z 31))
  in
  let data = Bytes.copy f.data in
  let state = ref (Int64.of_int ((seed * 0x1000193) lxor f.index)) in
  for i = 0 to Bytes.length data - 1 do
    let state', z = mix !state in
    state := state';
    let mask = Int64.to_int z land 0xff in
    let mask = if mask = 0 then 0x5a else mask in
    Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor mask))
  done;
  { index = f.index; data }

let pp ppf f = Format.fprintf ppf "fragment[%d](%d bytes)" f.index (size f)
