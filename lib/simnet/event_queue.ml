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
   arrays (parents [p < i], children [c < last <= size], cohort holes
   [hole < bound <= size] included). [debug_checks] in Wops gates the
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
  inbox : float array;
  (* cohort scratch for [drain_cohort]: the drained events in FIFO
     order, plus DFS work arrays. Like [slots], the payload buffer can
     retain references to already-dispatched events, bounded by the
     cohort high-water mark. *)
  mutable c_packed : int array;
  mutable c_tags : int array;
  mutable c_slots : 'a array;
  mutable c_stack : int array;  (* DFS to-visit stack *)
  mutable c_idx : int array  (* collected heap indices *)
}

exception Empty

let create () =
  { times = [||]; packed = [||]; tags = [||]; slots = [||]; free = [||];
    free_top = 0; size = 0; next_seq = 0; inbox = [| 0.0 |];
    c_packed = [||]; c_tags = [||]; c_slots = [||]; c_stack = [||];
    c_idx = [||] }

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
let next_tag h = if h.size = 0 then raise Empty else h.tags.(0)

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

(* ------------------------------------------------------------------ *)
(* Cohort draining.

   Every event whose time equals the minimum forms a subtree containing
   the root: a minimal element's ancestors all carry keys <= min, hence
   = min. [drain_cohort] DFS-collects that subtree, copies the events
   out (FIFO by sequence number), and refills the holes with elements
   taken from the heap's tail — one sift-down per hole instead of one
   full pop per event, and the engine's dispatch loop re-enters the
   heap once per timestamp instead of once per event. *)

let grow_int_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 16 (max n (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let ensure_cohort h n seed =
  h.c_packed <- grow_int_array h.c_packed n;
  h.c_tags <- grow_int_array h.c_tags n;
  if Array.length h.c_slots < n then begin
    let slots = Array.make (max 16 (max n (2 * Array.length h.c_slots))) seed in
    Array.blit h.c_slots 0 slots 0 (Array.length h.c_slots);
    h.c_slots <- slots
  end

(* Top-down sift of ([time], [word], [tag]) into the hole at [hole],
   staying within [bound]. Unlike [pop_exn]'s bottom-up variant this
   stops early — refill elements come from the tail (large keys), so
   they usually travel far, but holes start near the root and the
   bound is already reduced. Unsafe accesses: [hole < bound <= size]
   and child indices are checked against [bound]. *)
let sift_down h ~bound ~hole ~time ~word ~tag =
  let times = h.times and packed = h.packed and tags = h.tags in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= bound then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < bound
          && (Array.unsafe_get times r < Array.unsafe_get times l
             || (Array.unsafe_get times r = Array.unsafe_get times l
                && Array.unsafe_get packed r < Array.unsafe_get packed l))
        then r
        else l
      in
      if
        Array.unsafe_get times c < time
        || (Array.unsafe_get times c = time && Array.unsafe_get packed c < word)
      then begin
        Array.unsafe_set times !i (Array.unsafe_get times c);
        Array.unsafe_set packed !i (Array.unsafe_get packed c);
        Array.unsafe_set tags !i (Array.unsafe_get tags c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set h.times !i time;
  Array.unsafe_set h.packed !i word;
  Array.unsafe_set h.tags !i tag

(* Whether the minimum timestamp is shared with at least one other
   pending event, i.e. [drain_cohort] would return a cohort larger than
   one. O(1): in a heap the only candidates for the second occurrence
   of the minimum are the root's children. *)
let min_tied h =
  h.size > 1
  && (h.times.(1) = h.times.(0) || (h.size > 2 && h.times.(2) = h.times.(0)))

let drain_cohort h =
  if h.size = 0 then raise Empty;
  let times = h.times and packed = h.packed and tags = h.tags in
  let t0 = times.(0) in
  if not (min_tied h) then begin
    (* singleton cohort: exactly a pop *)
    let tag = tags.(0) in
    let payload = pop_exn h in
    ensure_cohort h 1 payload;
    h.c_tags.(0) <- tag;
    h.c_slots.(0) <- payload;
    1
  end
  else begin
    (* collect the min-time subtree *)
    h.c_stack <- grow_int_array h.c_stack h.size;
    h.c_idx <- grow_int_array h.c_idx h.size;
    let stack = h.c_stack and idx = h.c_idx in
    let sp = ref 1 and count = ref 0 in
    stack.(0) <- 0;
    while !sp > 0 do
      decr sp;
      let i = stack.(!sp) in
      idx.(!count) <- i;
      incr count;
      let l = (2 * i) + 1 in
      if l < h.size && times.(l) = t0 then begin
        stack.(!sp) <- l;
        incr sp
      end;
      let r = l + 1 in
      if r < h.size && times.(r) = t0 then begin
        stack.(!sp) <- r;
        incr sp
      end
    done;
    let count = !count in
    (* copy the events out and free their handles; mark each vacated
       position with packed = -1 (real packed words are >= 0) so the
       tail scan below can recognize holes *)
    ensure_cohort h count h.slots.(packed.(0) land handle_mask);
    for j = 0 to count - 1 do
      let i = idx.(j) in
      let word = packed.(i) in
      let handle = word land handle_mask in
      h.c_packed.(j) <- word;
      h.c_tags.(j) <- tags.(i);
      h.c_slots.(j) <- h.slots.(handle);
      h.free.(h.free_top) <- handle;
      h.free_top <- h.free_top + 1;
      packed.(i) <- -1
    done;
    (* FIFO order: sequence numbers are the packed words' high bits and
       unique, so sorting by packed word sorts by arrival *)
    let c_packed = h.c_packed and c_tags = h.c_tags and c_slots = h.c_slots in
    for j = 1 to count - 1 do
      let w = c_packed.(j) and tg = c_tags.(j) in
      let pl = c_slots.(j) in
      let i = ref (j - 1) in
      while !i >= 0 && c_packed.(!i) > w do
        c_packed.(!i + 1) <- c_packed.(!i);
        c_tags.(!i + 1) <- c_tags.(!i);
        c_slots.(!i + 1) <- c_slots.(!i);
        decr i
      done;
      c_packed.(!i + 1) <- w;
      c_tags.(!i + 1) <- tg;
      c_slots.(!i + 1) <- pl
    done;
    (* refill the holes in decreasing index order with non-hole elements
       taken from the tail. Processing larger holes first means a
       sift-down (which only ever descends) never meets an unfilled
       hole: an unfilled hole's index is smaller than the current one,
       and children have larger indices. Holes at or beyond the new
       size fall off the end with the tail. *)
    let new_size = h.size - count in
    for j = 1 to count - 1 do
      (* sort idx descending (small cohorts: insertion sort) *)
      let v = idx.(j) in
      let i = ref (j - 1) in
      while !i >= 0 && idx.(!i) < v do
        idx.(!i + 1) <- idx.(!i);
        decr i
      done;
      idx.(!i + 1) <- v
    done;
    let tail = ref (h.size - 1) in
    h.size <- new_size;
    for j = 0 to count - 1 do
      let hole = idx.(j) in
      if hole < new_size then begin
        while packed.(!tail) < 0 do
          decr tail
        done;
        let time = times.(!tail) and word = packed.(!tail) in
        let tag = tags.(!tail) in
        decr tail;
        sift_down h ~bound:new_size ~hole ~time ~word ~tag
      end
    done;
    count
  end

let cohort_tag h i = h.c_tags.(i)
let cohort_payload h i = h.c_slots.(i)
