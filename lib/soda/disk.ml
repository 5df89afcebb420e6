module Fragment = Erasure.Fragment
module Tag = Protocol.Tag

(* FNV-1a (32-bit) over the payload, mixed with the fragment index
   so a fragment swapped for another coordinate's bytes also fails
   verification. Each step loads 8 bytes at once and folds them in as
   two 32-bit halves: an eighth of the byte-serial loop's loads and
   iterations, a quarter of its multiplies. A tail shorter than 8 bytes
   goes byte by byte. A fold is a bijection in the input word and in
   the running hash, so a change confined to one 32-bit word is always
   detected. Pure integer arithmetic: checksumming draws no randomness
   and sends nothing, so enabling it never perturbs a simulation
   trace. *)
let fnv_prime = 0x01000193
let fnv_basis = 0x811c9dc5
let mask = 0xFFFFFFFF

let[@inline] fold h x = (h lxor x) * fnv_prime land mask

let checksum fragment =
  let data = Fragment.data fragment in
  let len = Bytes.length data in
  let words = len / 8 in
  let h = ref ((fnv_basis lxor Fragment.index fragment) land mask) in
  for w = 0 to words - 1 do
    let x = Bytes.get_int64_le data (8 * w) in
    h := fold !h (Int64.to_int x land mask);
    h := fold !h (Int64.to_int (Int64.shift_right_logical x 32))
  done;
  for i = 8 * words to len - 1 do
    h := fold !h (Char.code (Bytes.get data i))
  done;
  !h

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
