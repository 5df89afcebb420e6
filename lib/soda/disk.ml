module Fragment = Erasure.Fragment
module Tag = Protocol.Tag

(* FNV-1a (32-bit) over the payload, mixed with the fragment index
   so a fragment swapped for another coordinate's bytes also fails
   verification. Pure integer arithmetic: checksumming draws no
   randomness and sends nothing, so enabling it never perturbs a
   simulation trace. *)
let fnv_prime = 0x01000193
let fnv_basis = 0x811c9dc5
let mask = 0xFFFFFFFF

let checksum fragment =
  let data = Fragment.data fragment in
  let h = ref ((fnv_basis lxor Fragment.index fragment) land mask) in
  for i = 0 to Bytes.length data - 1 do
    h := (!h lxor Char.code (Bytes.get data i)) * fnv_prime land mask
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
