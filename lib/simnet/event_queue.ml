(* Two tiers, one order. Every event is ordered by (time, insertion
   seq), and the head is the smaller of the two tiers' heads under that
   order, so which tier holds an event never changes the delivery
   order: the bucket width and window below change speed only.

   Cells. Each queued event owns one cell: its time ([ctime]), tag,
   payload and a link word. Payloads never move while queued. If boxed
   payload pointers sat in the heap order itself, every level of every
   sift would pay a [caml_modify] write barrier, which dominated pop
   cost in profiles. Both tiers draw cells from one pool, which doubles
   at the queue's high-water mark, so the tiers' peaks share one
   allocation: four words per cell plus one per heap word, as many as
   a lone heap took (EXPERIMENTS.md, "Bucketed event queue", on why
   the heap sifts through the cells' times rather than keep its own).

   Near-future ring. Simulated time is cut into buckets [1 / scale]
   wide: absolute bucket [b] holds the events with
   [floor (time * scale) = b]. The ring covers [Array.length tails]
   consecutive buckets from [base], and bucket [b] lives in slot
   [b land (length - 1)]. A bucket is a circular singly-linked list of
   cells sorted by (time, seq), threaded through the low bits of the
   link words (the high bits hold the seq). Its slot holds the tail,
   whose successor is the head. Pops from the head are O(1), and so
   are appends at the tail: a fresh push has the largest seq, so it
   goes after every equal time. An out-of-order push walks the
   bucket's few cells. [base] follows the last popped time: every
   queued event is at or after it, so no ring event falls behind the
   window, and the engine's pushes (never before the clock) land at or
   after [base]. The ring's head is the head of bucket [first], the
   earliest non-empty one; when a pop empties that bucket, an
   occupancy bitmap (a bit per slot) finds the next non-empty slot 32
   slots at a time, which matters when the ring is sparse. This is
   Brown's calendar queue (CACM 1988) cut down to one "year", with the
   overflow tier of the ladder queue (Tang, Goh and Thng, TOMACS
   2005).

   Overflow heap. Events past the window (retransmission timers,
   up-front injections) or before it (a push behind the last popped
   time) go to a binary min-heap of packed words
   [seq lsl handle_bits lor cell]; sifts compare the cells' times, then
   the words. Sifts use the hole technique: the moving word is held in
   a local while parents/children shift by one slot. (A 4-ary layout was tried and measured slower on the mesh
   benchmark: the bottom-up binary sift below does one highly
   predictable comparison per level, and halving the depth does not
   pay for the three-way min-child selection per level that arity 4
   requires.)

   Bucket arithmetic is exact: [scale] is a power of two, so
   [time *. scale] is exact, and the window test runs on floats before
   any [int_of_float], so an infinite or huge time never reaches the
   conversion; it goes to the heap. Memory grows with live events only:
   [create] allocates no cells and no ring, and the slot array doubles
   (moving whole buckets) while the queue holds more events than it has
   slots, up to [max_buckets].

   Vacated cells are not cleared on pop (the generic interface has no
   dummy element to overwrite them with), so the queue can retain a
   reference to up to one popped payload per cell until the cell is
   reused — bounded by the queue's high-water mark. *)

(* Cell indices occupy the low [handle_bits] of the heap words and the
   link words, the insertion sequence the rest. Sequences are unique,
   so comparing words compares sequences; 2^24 events in flight
   (gigabytes of queue) and 2^38 pushes per queue are both far beyond
   any simulation this repo runs, and [alloc] checks the former. *)
(* U1 audit: every unchecked access in this file indexes [heap] with a
   position below [h.heap_size], which the growth in [heap_push] keeps
   within its length (parents [p < i] and children [c < last <= size]
   included), or [ctime] with a cell taken from a heap word, which
   [alloc] handed out below the cell arrays' length. [debug_checks] in
   Wops gates the equivalent dynamic assertions for the byte kernels;
   here the sift loops are bounds-audited by the invariant above. *)
[@@@lint.allow
  "U1: every index below is kept inside its array by heap_push's and \
   alloc's growth; Wops debug_checks gates the dynamic assertions"]

let handle_bits = 24
let handle_mask = (1 lsl handle_bits) - 1

(* Buckets per unit of simulated time, a power of two. Message delays in
   this repo are at most Δ = 2.0; at 512 a bucket holds a few events at
   the densest workload's peak, and 8,192 slots cover 8Δ, which
   takes in the first retransmission timers. Other widths and windows
   lost (EXPERIMENTS.md, "Bucketed event queue"). *)
let scale = 512.0
let min_buckets = 64
let max_buckets = 8192

(* Bases stay below 2^52, where every integer is a float and
   [int_of_float] is exact; a pop past that leaves [base] alone. *)
let max_base = 4503599627370496.0

(* The index of a 32-bit power of two [p] is
   [Char.code debruijn.[((p * 0x077CB531) land 0xFFFFFFFF) lsr 27]]
   (de Bruijn multiplication). *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

type 'a t = {
  (* cells: one per queued event, shared by both tiers; a free cell's
     link is the next free cell *)
  mutable ctime : float array;
  mutable clink : int array;  (* seq lsl handle_bits lor bucket successor *)
  mutable ctag : int array;
  mutable cslot : 'a array;  (* payload; never moves *)
  mutable cfree : int;  (* head of the free cell list, or -1 *)
  (* overflow heap: seq lsl handle_bits lor cell, in heap order *)
  mutable heap : int array;
  mutable heap_size : int;
  (* near-future ring *)
  mutable tails : int array;  (* per slot: a bucket's tail cell, or -1 *)
  (* bit [s land 31] of word [s lsr 5]: slot [s] holds a bucket *)
  mutable occ : int array;
  mutable base : int;  (* absolute bucket index of the window's start *)
  mutable first : int;  (* earliest non-empty bucket, while ring_size > 0 *)
  mutable ring_size : int;
  mutable size : int;
  mutable next_seq : int;
  mutable head_in_ring : bool;
  (* one-slot staging cell for [push_inbox]: the caller stores the
     event time here with an unboxed float-array write, sidestepping
     the boxing a float argument would cost at the call boundary *)
  inbox : float array;
  (* the head's time and tag, rewritten by every push that overtakes
     it and every pop *)
  head_time : float array;
  head_tag : int array
}

exception Empty

let create () =
  { ctime = [||]; clink = [||]; ctag = [||]; cslot = [||]; cfree = -1;
    heap = [||]; heap_size = 0; tails = [||]; occ = [||]; base = 0;
    first = 0; ring_size = 0; size = 0; next_seq = 0; head_in_ring = false;
    inbox = [| 0.0 |]; head_time = [| 0.0 |]; head_tag = [| 0 |] }

let size h = h.size
let is_empty h = h.size = 0
let inbox h = h.inbox
let unsafe_times h = h.head_time
let unsafe_tags h = h.head_tag
let next_time h = if h.size = 0 then raise Empty else h.head_time.(0)

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Take a free cell for the event in the inbox, doubling the cell
   arrays when every cell is live. The caller sets the cell's link. *)
let alloc h ~tag payload =
  if h.cfree < 0 then begin
    let old_cap = Array.length h.ctime in
    let cap = max 16 (2 * old_cap) in
    if cap > handle_mask + 1 then
      invalid_arg "Event_queue: more than 2^24 events in flight";
    h.ctime <- extend h.ctime cap 0.0;
    h.ctag <- extend h.ctag cap 0;
    h.cslot <- extend h.cslot cap payload;
    let clink = extend h.clink cap (-1) in
    for i = old_cap to cap - 2 do
      clink.(i) <- i + 1
    done;
    h.clink <- clink;
    h.cfree <- old_cap
  end;
  let c = h.cfree in
  h.cfree <- h.clink.(c);
  h.ctime.(c) <- h.inbox.(0);
  h.ctag.(c) <- tag;
  h.cslot.(c) <- payload;
  c

let release h c =
  h.clink.(c) <- h.cfree;
  h.cfree <- c;
  h.cslot.(c)

(* ------------------------------------------------------------------ *)
(* Overflow heap *)

(* The time is read from the inbox: a float argument would be boxed. *)
let heap_push h ~seq ~tag payload =
  let time = h.inbox.(0) in
  let c = alloc h ~tag payload in
  if h.heap_size = Array.length h.heap then
    h.heap <- extend h.heap (max 16 (2 * h.heap_size)) 0;
  let heap = h.heap and ctime = h.ctime in
  let word = (seq lsl handle_bits) lor c in
  (* sift the hole up: a fresh seq is larger than every stored seq, so
     only strictly-earlier times move the hole *)
  let i = ref h.heap_size in
  h.heap_size <- h.heap_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let wp = Array.unsafe_get heap p in
    if time < Array.unsafe_get ctime (wp land handle_mask) then begin
      Array.unsafe_set heap !i wp;
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set heap !i word

let heap_pop h =
  let root = h.heap.(0) land handle_mask in
  let last = h.heap_size - 1 in
  h.heap_size <- last;
  if last > 0 then begin
    let heap = h.heap and ctime = h.ctime in
    (* Re-insert the former last element bottom-up: the hole descends to
       a leaf along the min-child path (one comparison per level), then
       the element bubbles back up (usually not at all — a leaf element
       is among the largest). The resulting layout is identical to the
       textbook hole-stops-early sift, at roughly half the comparisons
       on the common path. *)
    let word = heap.(last) in
    let time = ctime.(word land handle_mask) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let wl = Array.unsafe_get heap l in
        let c =
          if r < last then begin
            let wr = Array.unsafe_get heap r in
            let tl = Array.unsafe_get ctime (wl land handle_mask)
            and tr = Array.unsafe_get ctime (wr land handle_mask) in
            if tr < tl || (tr = tl && wr < wl) then r else l
          end
          else l
        in
        Array.unsafe_set heap !i (Array.unsafe_get heap c);
        i := c
      end
    done;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let wp = Array.unsafe_get heap p in
      let tp = Array.unsafe_get ctime (wp land handle_mask) in
      if time < tp || (time = tp && word < wp) then begin
        Array.unsafe_set heap !i wp;
        i := p
      end
      else continue := false
    done;
    Array.unsafe_set heap !i word
  end;
  release h root

(* ------------------------------------------------------------------ *)
(* Near-future ring *)

(* A ring cell's successor in its bucket *)
let next h c = h.clink.(c) land handle_mask

(* Double the slot array. Each non-empty slot holds exactly one
   absolute bucket of the window, so its whole list moves to that
   bucket's slot in the larger array. *)
let grow_ring h =
  let old = h.tails in
  let nb = max min_buckets (2 * Array.length old) in
  let tails = Array.make nb (-1) and occ = Array.make (nb / 32) 0 in
  Array.iter
    (fun tail ->
      if tail >= 0 then begin
        let s = int_of_float (h.ctime.(tail) *. scale) land (nb - 1) in
        tails.(s) <- tail;
        occ.(s lsr 5) <- occ.(s lsr 5) lor (1 lsl (s land 31))
      end)
    old;
  h.tails <- tails;
  h.occ <- occ

(* Insert into absolute bucket [b], which lies inside the window. *)
let ring_push h b ~seq ~tag payload =
  let time = h.inbox.(0) in
  let c = alloc h ~tag payload in
  let ctime = h.ctime and clink = h.clink and tails = h.tails in
  let s = b land (Array.length tails - 1) in
  let tail = tails.(s) in
  if tail < 0 then begin
    clink.(c) <- (seq lsl handle_bits) lor c;
    tails.(s) <- c;
    h.occ.(s lsr 5) <- h.occ.(s lsr 5) lor (1 lsl (s land 31))
  end
  else begin
    let append = ctime.(tail) <= time in
    (* the cell to insert after: the tail, or the last cell not after
       [time] on a walk from the head (the tail's successor), which
       stops because the tail is after [time] *)
    let p =
      if append then tail
      else begin
        let p = ref tail in
        while ctime.(clink.(!p) land handle_mask) <= time do
          p := clink.(!p) land handle_mask
        done;
        !p
      end
    in
    let lp = clink.(p) in
    clink.(c) <- (seq lsl handle_bits) lor (lp land handle_mask);
    clink.(p) <- lp land lnot handle_mask lor c;
    if append then tails.(s) <- c
  end;
  if h.ring_size = 0 || b < h.first then h.first <- b;
  h.ring_size <- h.ring_size + 1

let ring_head h = next h h.tails.(h.first land (Array.length h.tails - 1))

let ring_pop h =
  let tails = h.tails in
  let mask = Array.length tails - 1 in
  let s = h.first land mask in
  let tail = tails.(s) in
  let c = next h tail in
  h.ring_size <- h.ring_size - 1;
  if c <> tail then
    h.clink.(tail) <- h.clink.(tail) land lnot handle_mask lor next h c
  else begin
    tails.(s) <- -1;
    let occ = h.occ in
    occ.(s lsr 5) <- occ.(s lsr 5) land lnot (1 lsl (s land 31));
    if h.ring_size > 0 then begin
      (* the next non-empty slot after [s], 32 slots a word; every
         ring event lies in the window, so the scan stops within one
         lap *)
      let s0 = (s + 1) land mask in
      let w = ref (s0 lsr 5) in
      let bits = ref (occ.(!w) land (-1 lsl (s0 land 31))) in
      while !bits = 0 do
        w := (!w + 1) land (mask lsr 5);
        bits := occ.(!w)
      done;
      let low = !bits land - !bits in
      let slot =
        (!w lsl 5)
        + Char.code debruijn.[((low * 0x077CB531) land 0xFFFFFFFF) lsr 27]
      in
      h.first <- h.first + 1 + ((slot - s0) land mask)
    end
  end;
  release h c

(* ------------------------------------------------------------------ *)
(* The two tiers together *)

let push_inbox h ~tag payload =
  let time = h.inbox.(0) in
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- h.size + 1;
  if h.size > Array.length h.tails && Array.length h.tails < max_buckets then
    grow_ring h;
  let x = time *. scale in
  let in_ring =
    x >= Float.of_int h.base
    && x < Float.of_int (h.base + Array.length h.tails)
  in
  (* a fresh seq is the largest, so only a strictly earlier time
     overtakes the head *)
  if h.size = 1 || time < h.head_time.(0) then begin
    h.head_time.(0) <- time;
    h.head_tag.(0) <- tag;
    h.head_in_ring <- in_ring
  end;
  if in_ring then ring_push h (int_of_float x) ~seq ~tag payload
  else heap_push h ~seq ~tag payload

let push_tagged h ~time ~tag payload =
  h.inbox.(0) <- time;
  push_inbox h ~tag payload

let pop_exn h =
  if h.size = 0 then raise Empty;
  h.size <- h.size - 1;
  (* every event left is at or after the popped one: the window may
     start at its bucket *)
  let x = h.head_time.(0) *. scale in
  if x >= Float.of_int h.base && x < max_base then h.base <- int_of_float x;
  let payload = if h.head_in_ring then ring_pop h else heap_pop h in
  if h.size > 0 then begin
    (* the new head: the ring's unless the heap's top is earlier *)
    let from_ring =
      h.heap_size = 0
      || h.ring_size > 0
         &&
         let r = ring_head h and w = h.heap.(0) in
         let tr = h.ctime.(r) and tt = h.ctime.(w land handle_mask) in
         tr < tt
         || (tr = tt && h.clink.(r) lsr handle_bits < w lsr handle_bits)
    in
    let c = if from_ring then ring_head h else h.heap.(0) land handle_mask in
    h.head_in_ring <- from_ring;
    h.head_time.(0) <- h.ctime.(c);
    h.head_tag.(0) <- h.ctag.(c)
  end;
  payload
