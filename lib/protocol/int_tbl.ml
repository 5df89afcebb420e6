(* Open-addressing hash tables keyed by non-negative ints.

   The simulator's hot paths (MD deduplication, the servers' H sets)
   perform millions of membership tests and insertions on small int
   keys. Stdlib [Hashtbl] pays a C call into the generic hasher plus a
   bucket-cons allocation per [add]; these tables use linear probing
   over flat int arrays — a multiply-and-shift plus a couple of cache
   lines per operation, and no allocation once grown.

   Slots come from Fibonacci hashing: the key times an odd 61-bit
   constant, keeping the {e top} log2(capacity) bits of the 63-bit
   product. The high bits of a product depend on every bit of the key,
   so keys that differ only above bit 20 — mids [(seq lsl 20) lor
   origin], packed tags [(z lsl 21) lor (w + 1)] — spread over the
   table instead of sharing the home slot of their low bits. A record
   keeps [shift] (= [Sys.int_size - log2 capacity]) and derives the
   probe mask from the key array's length, so it is no larger than a
   masked table's.

   No removal of individual keys (that would need tombstones); callers
   that delete do so wholesale with [reset]. Capacities are powers of
   two, load factor <= 1/2. The empty slot is keyed by -1, so keys must
   be >= 0 — which packed tags, mids and coordinates are. *)

[@@@lint.allow
  "U1: the probe loops index keys/vals with h land mask, where mask = \
   Array.length keys - 1 and both arrays share that length — the masked \
   index cannot escape"]

let[@inline] slot_of key shift = (key * 0x1fd3eca2d2b1ba6d) lsr shift

(* The smallest power of two >= 16 holding [capacity] keys at load
   <= 1/2, and its shift. *)
let sizing capacity =
  let cap = ref 16 and bits = ref 4 in
  while !cap < 2 * capacity do
    cap := !cap * 2;
    incr bits
  done;
  (!cap, Sys.int_size - !bits)

(* The slot holding [key], or [lnot] the free slot where it would go. *)
let rec probe keys mask i key =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = -1 then lnot i
  else probe keys mask ((i + 1) land mask) key

let[@inline] find_slot keys shift key =
  probe keys (Array.length keys - 1) (slot_of key shift) key

(* Longest probe sequence over the present keys: the number of slots a
   lookup of the worst-placed key inspects. *)
let max_probe_of keys shift =
  let mask = Array.length keys - 1 in
  let worst = ref 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then
        worst := max !worst (((i - slot_of k shift) land mask) + 1))
    keys;
  !worst

module Set = struct
  type t = { mutable keys : int array; mutable size : int; mutable shift : int }

  let create capacity =
    let cap, shift = sizing capacity in
    { keys = Array.make cap (-1); size = 0; shift }

  let length t = t.size

  let find_slot t key = find_slot t.keys t.shift key

  let mem t key = find_slot t key >= 0

  let grow t =
    let old = t.keys in
    t.keys <- Array.make (2 * Array.length old) (-1);
    t.shift <- t.shift - 1;
    Array.iter (fun k -> if k >= 0 then t.keys.(lnot (find_slot t k)) <- k) old

  (* [add t key] inserts and reports whether the key was new. *)
  let add t key =
    if key < 0 then invalid_arg "Int_tbl.Set.add: negative key";
    let i = find_slot t key in
    if i >= 0 then false
    else begin
      t.keys.(lnot i) <- key;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t;
      true
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.size <- 0

  let iter f t = Array.iter (fun k -> if k >= 0 then f k) t.keys
  let max_probe t = max_probe_of t.keys t.shift
end

(* Same scheme with a parallel value array. The dummy passed at
   [create] pads unused value slots (the generic interface has no other
   way to initialise them); it is never returned for a present key. *)
module Map = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    dummy : 'a;
    mutable size : int;
    mutable shift : int
  }

  let create ~dummy capacity =
    let cap, shift = sizing capacity in
    { keys = Array.make cap (-1);
      vals = Array.make cap dummy;
      dummy;
      size = 0;
      shift
    }

  let length t = t.size

  let find_slot t key = find_slot t.keys t.shift key

  let find_opt t key =
    let i = find_slot t key in
    if i >= 0 then Some (Array.unsafe_get t.vals i) else None

  let find t key ~default =
    let i = find_slot t key in
    if i >= 0 then Array.unsafe_get t.vals i else default

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let cap = 2 * Array.length okeys in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap t.dummy;
    t.shift <- t.shift - 1;
    Array.iteri
      (fun j k ->
        if k >= 0 then begin
          let i = lnot (find_slot t k) in
          t.keys.(i) <- k;
          t.vals.(i) <- ovals.(j)
        end)
      okeys

  let replace t key v =
    if key < 0 then invalid_arg "Int_tbl.Map.replace: negative key";
    let i = find_slot t key in
    if i >= 0 then t.vals.(i) <- v
    else begin
      let i = lnot i in
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.vals 0 (Array.length t.vals) t.dummy;
    t.size <- 0

  let fold f t acc =
    let acc = ref acc in
    Array.iteri
      (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc)
      t.keys;
    !acc

  let max_probe t = max_probe_of t.keys t.shift
end
