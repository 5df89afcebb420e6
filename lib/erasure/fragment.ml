(* A fragment is a view: [len] payload bytes starting at [off] in
   [buf]. Codecs encode all n fragments into one backing buffer and
   hand out views, so an encode allocates one payload buffer instead of
   n, and nothing between the encoder and the decoder copies payload
   bytes (messages and server stores hold the fragment itself). The
   price is that [data] on a proper sub-view must copy — the kernel
   paths avoid it by reading [buf]/[off]/[len] directly. *)

type t = { index : int; buf : bytes; off : int; len : int }

let make ~index ~data =
  if index < 0 then invalid_arg "Fragment.make: negative index";
  { index; buf = data; off = 0; len = Bytes.length data }

let index f = f.index
let buf f = f.buf
let off f = f.off
let size f = f.len

(* Whole-buffer views return the backing buffer itself. *)
let data f =
  if f.off = 0 && f.len = Bytes.length f.buf then f.buf
  else Bytes.sub f.buf f.off f.len

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
  let data = Bytes.sub f.buf f.off f.len in
  let state = ref (Int64.of_int ((seed * 0x1000193) lxor f.index)) in
  for i = 0 to Bytes.length data - 1 do
    let state', z = mix !state in
    state := state';
    let mask = Int64.to_int z land 0xff in
    let mask = if mask = 0 then 0x5a else mask in
    Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor mask))
  done;
  { index = f.index; buf = data; off = 0; len = Bytes.length data }

let pp ppf f = Format.fprintf ppf "fragment[%d](%d bytes)" f.index f.len
