(* Struct-of-arrays binary min-heap. The keys live in a flat unboxed
   [float array] (times) plus an [int array] carrying the insertion
   sequence (the FIFO tie-break) packed with a payload handle, so sift
   operations compare and move immediates only — no boxed entry
   records, no per-push allocation once the arrays have grown to the
   high-water mark.

   (A 4-ary layout was tried and measured slower on the mesh benchmark:
   the bottom-up binary sift below does one highly predictable
   comparison per level, and halving the depth does not pay for the
   three-way min-child selection per level that arity 4 requires.)

   Payloads never move: each lives in a stable [slots] array cell whose
   index (the handle) rides in the low bits of the packed word. Sifting
   therefore touches only unboxed float and int arrays — if the boxed
   payload pointers sat in the heap order themselves, every level of
   every sift would pay a [caml_modify] write barrier (the arrays are
   long-lived, so each pointer store into them goes through the
   remembered set), which dominated pop cost in profiles.

   Sifts use the classic hole technique: the moving element is held in
   locals while parents/children shift by one slot, so each step is
   three array stores instead of a three-way swap. The sift loops use
   unchecked array access: every index is derived from the heap size,
   which [ensure_capacity] keeps within the length of all three key
   arrays (parents [p < i] and children [c < last <= size] included).

   Vacated slots are not cleared on pop (the generic interface has no
   dummy element to overwrite them with), so the queue can retain a
   reference to up to one popped payload per slot until the handle is
   reused — bounded by the heap's high-water mark, the same retention
   the previous boxed representation had. *)

(* Handles occupy the low [handle_bits] of the packed word, the
   insertion sequence the rest. Sequences are unique, so comparing
   packed words compares sequences; 2^24 events in flight (gigabytes of
   queue) and 2^38 pushes per queue are both far beyond any simulation
   this repo runs, and [ensure_capacity] checks the former. *)
(* U1 audit: every unchecked access in this file indexes [times],
   [packed] or [tags] with a position derived from [h.size], which
   [ensure_capacity] keeps within the length of all three parallel
   arrays (parents [p < i] and children [c < last <= size] included). [debug_checks] in Wops gates the
   equivalent dynamic assertions for the byte kernels; here the sift
   loops are bounds-audited by the invariant above. *)
[@@@lint.allow
  "U1: every index below is kept inside the parallel arrays by \
   ensure_capacity's invariant; Wops debug_checks gates the dynamic \
   assertions"]

let handle_bits = 24
let handle_mask = (1 lsl handle_bits) - 1

type 'a t = {
  mutable times : float array;
  mutable packed : int array;  (* seq lsl handle_bits lor handle *)
  mutable tags : int array;
  mutable slots : 'a array;  (* payload per handle; never moves *)
  mutable free : int array;  (* stack of unused handles *)
  mutable free_top : int;
  mutable size : int;
  mutable next_seq : int;
  (* one-slot staging cell for [push_inbox]: the caller stores the
     event time here with an unboxed float-array write, sidestepping
     the boxing a float argument would cost at the call boundary *)
  inbox : float array
}

exception Empty

let create () =
  { times = [||]; packed = [||]; tags = [||]; slots = [||]; free = [||];
    free_top = 0; size = 0; next_seq = 0; inbox = [| 0.0 |] }

let size h = h.size
let is_empty h = h.size = 0

let ensure_capacity h payload =
  if h.size >= Array.length h.times then begin
    let old_cap = Array.length h.times in
    let cap = max 16 (2 * old_cap) in
    if cap > handle_mask + 1 then
      invalid_arg "Event_queue: more than 2^24 events in flight";
    let times = Array.make cap 0.0 in
    let packed = Array.make cap 0 in
    let tags = Array.make cap 0 in
    let slots = Array.make cap payload in
    let free = Array.make cap 0 in
    Array.blit h.times 0 times 0 h.size;
    Array.blit h.packed 0 packed 0 h.size;
    Array.blit h.tags 0 tags 0 h.size;
    Array.blit h.slots 0 slots 0 old_cap;
    Array.blit h.free 0 free 0 h.free_top;
    (* the fresh handles join the free stack *)
    for i = old_cap to cap - 1 do
      free.(h.free_top + (i - old_cap)) <- i
    done;
    h.free_top <- h.free_top + (cap - old_cap);
    h.times <- times;
    h.packed <- packed;
    h.tags <- tags;
    h.slots <- slots;
    h.free <- free
  end

let inbox h = h.inbox
let unsafe_times h = h.times
let unsafe_tags h = h.tags

let push_inbox h ~tag payload =
  let time = h.inbox.(0) in
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  ensure_capacity h payload;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.free_top <- h.free_top - 1;
  let handle = h.free.(h.free_top) in
  h.slots.(handle) <- payload;
  let word = (seq lsl handle_bits) lor handle in
  let times = h.times and packed = h.packed and tags = h.tags in
  (* sift the hole up: a fresh seq is larger than every stored seq, so
     only strictly-earlier times move the hole *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < Array.unsafe_get times p then begin
      Array.unsafe_set times !i (Array.unsafe_get times p);
      Array.unsafe_set packed !i (Array.unsafe_get packed p);
      Array.unsafe_set tags !i (Array.unsafe_get tags p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set packed !i word;
  Array.unsafe_set tags !i tag

let push_tagged h ~time ~tag payload =
  h.inbox.(0) <- time;
  push_inbox h ~tag payload

let next_time h = if h.size = 0 then raise Empty else h.times.(0)

let pop_exn h =
  if h.size = 0 then raise Empty;
  let handle = h.packed.(0) land handle_mask in
  let root = h.slots.(handle) in
  h.free.(h.free_top) <- handle;
  h.free_top <- h.free_top + 1;
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let times = h.times and packed = h.packed and tags = h.tags in
    (* Re-insert the former last element bottom-up: the hole descends to
       a leaf along the min-child path (one comparison per level), then
       the element bubbles back up (usually not at all — a leaf element
       is among the largest). The resulting layout is identical to the
       textbook hole-stops-early sift, at roughly half the comparisons
       on the common path. *)
    let time = times.(last) and word = packed.(last) in
    let tag = tags.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (Array.unsafe_get times r < Array.unsafe_get times l
               || (Array.unsafe_get times r = Array.unsafe_get times l
                  && Array.unsafe_get packed r < Array.unsafe_get packed l))
          then r
          else l
        in
        Array.unsafe_set times !i (Array.unsafe_get times c);
        Array.unsafe_set packed !i (Array.unsafe_get packed c);
        Array.unsafe_set tags !i (Array.unsafe_get tags c);
        i := c
      end
    done;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if
        time < Array.unsafe_get times p
        || (time = Array.unsafe_get times p
           && word < Array.unsafe_get packed p)
      then begin
        Array.unsafe_set times !i (Array.unsafe_get times p);
        Array.unsafe_set packed !i (Array.unsafe_get packed p);
        Array.unsafe_set tags !i (Array.unsafe_get tags p);
        i := p
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set packed !i word;
    Array.unsafe_set tags !i tag
  end;
  root
