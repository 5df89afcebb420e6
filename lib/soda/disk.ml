module Fragment = Erasure.Fragment
module Tag = Protocol.Tag

(* FNV-1a (32-bit) over the payload, mixed with the fragment index
   so a fragment swapped for another coordinate's bytes also fails
   verification. Each step loads 8 bytes at once and folds its low and
   its high 32-bit halves into two independent lanes, so the two
   multiply chains overlap; a tail shorter than 8 bytes goes byte by
   byte into the low lane, and the high lane is folded into the low
   one at the end. A fold is a bijection in the input word and in the
   running hash, and so is the final combine in each lane, so a change
   confined to one 32-bit word is always detected. Pure integer
   arithmetic: checksumming draws no randomness and sends nothing, so
   enabling it never perturbs a simulation trace. *)
let fnv_prime = 0x01000193
let fnv_basis = 0x811c9dc5
let mask = 0xFFFFFFFF

let[@inline] fold h x = (h lxor x) * fnv_prime land mask

let checksum fragment =
  let data = Fragment.data fragment in
  let len = Bytes.length data in
  let words = len / 8 in
  let lo = ref ((fnv_basis lxor Fragment.index fragment) land mask) in
  let hi = ref fnv_basis in
  for w = 0 to words - 1 do
    let x = Bytes.get_int64_le data (8 * w) in
    lo := fold !lo (Int64.to_int x land mask);
    hi := fold !hi (Int64.to_int (Int64.shift_right_logical x 32))
  done;
  for i = 8 * words to len - 1 do
    lo := fold !lo (Char.code (Bytes.get data i))
  done;
  fold !lo !hi

type t = {
  mutable tag : Tag.t;
  mutable fragment : Fragment.t;
  mutable sum : int;
  mutable quarantined : bool
}

let create ~tag ~fragment =
  { tag; fragment; sum = checksum fragment; quarantined = false }

let store t ~tag ~fragment =
  t.tag <- tag;
  t.fragment <- fragment;
  t.sum <- checksum fragment;
  t.quarantined <- false

let tag t = t.tag
let fragment_unchecked t = t.fragment
let quarantined t = t.quarantined
let verify t = checksum t.fragment = t.sum

let read t =
  if t.quarantined then `Corrupt
  else if verify t then `Ok t.fragment
  else begin
    t.quarantined <- true;
    `Corrupt
  end

let rot t ~seed = t.fragment <- Fragment.corrupt t.fragment ~seed
