(* Delivered mids as per-origin marks plus holes.

   [cells] is one flat int array in four equal parts of [width] slots:
   origins in [0, width), then each origin's [lo], [high] and [recent]
   in the next three parts. The origin part is an open-addressed table
   with home slot [origin land (width - 1)] and linear probing; origins
   are never removed one at a time, so a [-1] ends a probe. Pids are
   small dense ints, so an origin nearly always sits in its home slot.
   [width] is a power of two that doubles only when the table is full:
   a set of two origins takes 12 words where a hash table of three mids
   takes 13.

   Origin [o] holds every seq in [lo, high) except its holes. Bit [b] of
   [recent] marks seq [high - 1 - b] as a hole, for the [window] seqs
   just below [high]: copies overtaken by a few later dispersals only
   flip bits. A hole further down (a straggler more than [window]
   dispersals behind its origin's latest) lives in [far], one table for
   every origin keyed by the hole's own mid, allocated at the first
   such hole. *)

module Int_tbl = Protocol.Int_tbl

type t = { mutable cells : int array; mutable far : Int_tbl.Set.t option }

let window = 62
let window_mask = (1 lsl window) - 1

let create () = { cells = [||]; far = None }

let reset t =
  t.cells <- [||];
  t.far <- None

(* The slot of [origin], or [lnot] the free slot where it would go
   ([lnot width] when the table is full). *)
let rec probe cells width origin j n =
  if n = width then lnot width
  else
    let o = cells.(j) in
    if o = origin then j
    else if o < 0 then lnot j
    else probe cells width origin ((j + 1) land (width - 1)) (n + 1)

let find cells width origin =
  if width = 0 then lnot 0 else probe cells width origin (origin land (width - 1)) 0

let[@inline] width t = Array.length t.cells / 4

let far_add t ~origin ~seq =
  let far =
    match t.far with
    | Some h -> h
    | None ->
      let h = Int_tbl.Set.create 0 in
      t.far <- Some h;
      h
  in
  ignore (Int_tbl.Set.add far (Messages.mid ~origin ~seq :> int) : bool)

let far_mem t ~origin ~seq =
  match t.far with
  | None -> false
  | Some h -> Int_tbl.Set.mem h (Messages.mid ~origin ~seq :> int)

(* [true] iff it was a far hole: one probe, not a lookup and a remove *)
let far_fill t ~origin ~seq =
  match t.far with
  | None -> false
  | Some h ->
    let before = Int_tbl.Set.length h in
    Int_tbl.Set.remove h (Messages.mid ~origin ~seq :> int);
    Int_tbl.Set.length h < before

(* [recent] with seq [s] marked as a hole, [b] = [high - 1 - s] below
   the origin's [high]; beyond the window it goes to [far]. *)
let open_hole t ~origin recent ~b ~s =
  if b < window then recent lor (1 lsl b)
  else begin
    far_add t ~origin ~seq:s;
    recent
  end

(* Move to [far] the holes marked in [bits], bit 0 standing for the
   seq [b] below [high]. *)
let rec spill t ~origin ~high bits b =
  if bits <> 0 then begin
    if bits land 1 <> 0 then far_add t ~origin ~seq:(high - 1 - b);
    spill t ~origin ~high (bits lsr 1) (b + 1)
  end

(* Double the slots (at least 2), re-placing every origin with its
   marks. *)
let grow t =
  let old = t.cells in
  let w = Array.length old / 4 in
  let w' = max 2 (2 * w) in
  let cells = Array.make (4 * w') (-1) in
  for i = 0 to w - 1 do
    if old.(i) >= 0 then begin
      let j = lnot (find cells w' old.(i)) in
      for part = 0 to 3 do
        cells.((part * w') + j) <- old.((part * w) + i)
      done
    end
  done;
  t.cells <- cells

let add t (mid : Messages.mid) =
  let origin = Messages.mid_origin mid and seq = Messages.mid_seq mid in
  let w = width t in
  let i = find t.cells w origin in
  if i < 0 then begin
    let i =
      if lnot i < w then lnot i
      else begin
        grow t;
        lnot (find t.cells (width t) origin)
      end
    in
    let cells = t.cells and w = width t in
    cells.(i) <- origin;
    cells.(w + i) <- seq;
    cells.((2 * w) + i) <- seq + 1;
    cells.((3 * w) + i) <- 0;
    true
  end
  else begin
    let cells = t.cells in
    let lo = cells.(w + i)
    and high = cells.((2 * w) + i)
    and recent = cells.((3 * w) + i) in
    if seq >= high then begin
      (* the marks move [shift] bits up from the new high: those leaving
         the window spill to [far], and the seqs skipped between the old
         high and [seq] open as holes *)
      let shift = seq + 1 - high in
      let kept =
        if shift >= window then begin
          spill t ~origin ~high recent 0;
          0
        end
        else begin
          spill t ~origin ~high (recent lsr (window - shift)) (window - shift);
          (recent lsl shift) land window_mask
        end
      in
      let recent = ref kept in
      for s = high to seq - 1 do
        recent := open_hole t ~origin !recent ~b:(seq - s) ~s
      done;
      cells.((2 * w) + i) <- seq + 1;
      cells.((3 * w) + i) <- !recent;
      true
    end
    else if seq >= lo then begin
      let b = high - 1 - seq in
      if b >= window then far_fill t ~origin ~seq
      else if recent land (1 lsl b) <> 0 then begin
        cells.((3 * w) + i) <- recent land lnot (1 lsl b);
        true
      end
      else false
    end
    else begin
      let recent = ref recent in
      for s = seq + 1 to lo - 1 do
        recent := open_hole t ~origin !recent ~b:(high - 1 - s) ~s
      done;
      cells.(w + i) <- seq;
      cells.((3 * w) + i) <- !recent;
      true
    end
  end

let mem t (mid : Messages.mid) =
  let origin = Messages.mid_origin mid and seq = Messages.mid_seq mid in
  let w = width t in
  let i = find t.cells w origin in
  i >= 0
  &&
  let high = t.cells.((2 * w) + i) in
  let b = high - 1 - seq in
  seq >= t.cells.(w + i)
  && seq < high
  &&
  if b < window then t.cells.((3 * w) + i) land (1 lsl b) = 0
  else not (far_mem t ~origin ~seq)

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let holes t =
  let w = width t in
  let n = ref (match t.far with None -> 0 | Some h -> Int_tbl.Set.length h) in
  for i = 0 to w - 1 do
    if t.cells.(i) >= 0 then n := !n + popcount t.cells.((3 * w) + i)
  done;
  !n

let cardinal t =
  let w = width t in
  let n = ref 0 in
  for i = 0 to w - 1 do
    if t.cells.(i) >= 0 then
      n := !n + t.cells.((2 * w) + i) - t.cells.(w + i)
  done;
  !n - holes t
