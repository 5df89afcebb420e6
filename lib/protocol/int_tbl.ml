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

   Tables are pay-per-use: an empty table holds the shared empty array
   [[||]] (no slots, no allocation) and takes its first 4 slots on the
   first insert; [remove] or [reset] emptying it hands the slots back.
   A keyspace materialises tens of thousands of server automata whose
   tables mostly stay empty, so the empty state must cost one record.

   Removal is Knuth's Algorithm R (backward-shift deletion): the keys
   after the hole in its cluster move back when their home slot allows,
   so no tombstone slots ever exist and probe lengths stay those of a
   table that never held the removed key. Capacities are powers of two
   (at least 4 once non-empty), load factor <= 1/2. The empty slot is
   keyed by -1, so stored keys must be >= 0 — which packed tags, mids,
   rids, coordinates and keyspace keys are; lookups and removals of a
   negative key answer "absent". *)

[@@@lint.allow
  "U1: the probe loops index keys/vals with h land mask, where mask = \
   Array.length keys - 1 and both arrays share that length — the masked \
   index cannot escape"]

let[@inline] slot_of key shift = (key * 0x1fd3eca2d2b1ba6d) lsr shift

let min_slots = 4

(* The slot count for [capacity] keys at load <= 1/2: 0 for a lazy
   table, else the smallest power of two >= [min_slots] that fits. *)
let slots_for capacity =
  if capacity <= 0 then 0
  else begin
    let slots = ref min_slots in
    while !slots < 2 * capacity do
      slots := !slots * 2
    done;
    !slots
  end

(* [Sys.int_size - log2 slots]; an empty table is never probed, so its
   shift is arbitrary. *)
let shift_of slots =
  let bits = ref 0 in
  while 1 lsl !bits < slots do
    incr bits
  done;
  Sys.int_size - !bits

(* The slot holding [key], or [lnot] the free slot where it would go. *)
let rec probe keys mask i key =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = -1 then lnot i
  else probe keys mask ((i + 1) land mask) key

(* An empty table, or a negative key, answers "absent" without probing:
   a negative key would otherwise match the [-1] of an empty slot.
   Inserts reject negative keys and size the table first, so they never
   see this [-1]. *)
let[@inline] find_slot keys shift key =
  let slots = Array.length keys in
  if slots = 0 || key < 0 then -1
  else probe keys (slots - 1) (slot_of key shift) key

(* Close the hole left at slot [i] (Knuth's Algorithm R): walk the rest
   of the cluster and move back every key whose home slot does not lie
   cyclically in (hole, j] — that key's probe passed the hole, so it may
   sit there. [move dst src] copies a slot; the slot finally left empty
   is returned. The load bound guarantees an empty slot ends the walk. *)
let backward_shift keys shift i move =
  let mask = Array.length keys - 1 in
  let rec walk hole j =
    let j = (j + 1) land mask in
    let k = Array.unsafe_get keys j in
    if k = -1 then hole
    else if (j - slot_of k shift) land mask >= (j - hole) land mask then begin
      move hole j;
      walk j j
    end
    else walk hole j
  in
  walk i i

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
    let slots = slots_for capacity in
    { keys = Array.make slots (-1); size = 0; shift = shift_of slots }

  let length t = t.size

  let find_slot t key = find_slot t.keys t.shift key

  let mem t key = find_slot t key >= 0

  let resize t slots =
    let old = t.keys in
    t.keys <- Array.make slots (-1);
    t.shift <- shift_of slots;
    Array.iter (fun k -> if k >= 0 then t.keys.(lnot (find_slot t k)) <- k) old

  (* [add t key] inserts and reports whether the key was new. *)
  let add t key =
    if key < 0 then invalid_arg "Int_tbl.Set.add: negative key";
    if Array.length t.keys = 0 then resize t min_slots;
    let i = find_slot t key in
    if i >= 0 then false
    else begin
      t.keys.(lnot i) <- key;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then
        resize t (2 * Array.length t.keys);
      true
    end

  let reset t =
    t.keys <- [||];
    t.size <- 0

  let remove t key =
    let i = find_slot t key in
    if i >= 0 then
      if t.size = 1 then reset t
      else begin
        let keys = t.keys in
        let hole =
          backward_shift keys t.shift i (fun dst src -> keys.(dst) <- keys.(src))
        in
        keys.(hole) <- -1;
        t.size <- t.size - 1
      end

  let iter f t = Array.iter (fun k -> if k >= 0 then f k) t.keys
  let max_probe t = max_probe_of t.keys t.shift
end

(* Same scheme with a parallel value array. The dummy passed at
   [create] pads unused value slots (the generic interface has no other
   way to initialise them); it is never returned for a present key, and
   a removed key's value slot is overwritten with it so the table does
   not keep the value alive. *)
module Map = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    dummy : 'a;
    mutable size : int;
    mutable shift : int
  }

  let create ~dummy capacity =
    let slots = slots_for capacity in
    { keys = Array.make slots (-1);
      vals = Array.make slots dummy;
      dummy;
      size = 0;
      shift = shift_of slots
    }


  let find_slot t key = find_slot t.keys t.shift key

  let mem t key = find_slot t key >= 0

  let find_opt t key =
    let i = find_slot t key in
    if i >= 0 then Some (Array.unsafe_get t.vals i) else None

  let find t key ~default =
    let i = find_slot t key in
    if i >= 0 then Array.unsafe_get t.vals i else default

  let resize t slots =
    let okeys = t.keys and ovals = t.vals in
    t.keys <- Array.make slots (-1);
    t.vals <- Array.make slots t.dummy;
    t.shift <- shift_of slots;
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
    if Array.length t.keys = 0 then resize t min_slots;
    let i = find_slot t key in
    if i >= 0 then t.vals.(i) <- v
    else begin
      let i = lnot i in
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then
        resize t (2 * Array.length t.keys)
    end

  let reset t =
    t.keys <- [||];
    t.vals <- [||];
    t.size <- 0

  let remove t key =
    let i = find_slot t key in
    if i >= 0 then
      if t.size = 1 then reset t
      else begin
        let keys = t.keys and vals = t.vals in
        let hole =
          backward_shift keys t.shift i (fun dst src ->
              keys.(dst) <- keys.(src);
              vals.(dst) <- vals.(src))
        in
        keys.(hole) <- -1;
        vals.(hole) <- t.dummy;
        t.size <- t.size - 1
      end

  let fold f t acc =
    let acc = ref acc in
    Array.iteri
      (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc)
      t.keys;
    !acc

  let max_probe t = max_probe_of t.keys t.shift
end
