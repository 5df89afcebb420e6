type config = {
  rto : float;
  backoff : float;
  max_rto : float;
  jitter : float;
  max_retries : int
}

let default =
  { rto = 5.0;
    backoff = 1.6;
    max_rto = 60.0;
    jitter = 0.1;
    max_retries = 50
  }

let validate c =
  if not (c.rto > 0.0) then invalid_arg "Channel: rto must be > 0";
  if not (c.backoff >= 1.0) then invalid_arg "Channel: backoff must be >= 1";
  if not (c.max_rto >= c.rto) then invalid_arg "Channel: max_rto < rto";
  if not (c.jitter >= 0.0) then invalid_arg "Channel: negative jitter";
  if c.max_retries < 0 then invalid_arg "Channel: negative max_retries"

let next_rto c rto = Float.min (rto *. c.backoff) c.max_rto

let backoff_schedule c ~retries =
  let rec go rto i acc =
    if i >= retries then List.rev acc else go (next_rto c rto) (i + 1) (rto :: acc)
  in
  go c.rto 0 []

(* [timeouts.(i)] is the timeout after [i] retransmissions: the backoff
   schedule up to [max_retries], cut where it stops changing (at
   [max_rto], or at once when [backoff = 1]); lookups clamp to the last
   entry. *)
let timeout_table c =
  let rec entries rto i =
    let next = next_rto c rto in
    if i >= c.max_retries || Float.equal next rto then i + 1
    else entries next (i + 1)
  in
  Array.of_list (backoff_schedule c ~retries:(entries c.rto 0))

(* Sequence numbers share the engine's event tag word (bits 44-62). *)
let max_seq = 0x7FFFF

(* All channel state for one directed link src -> dst, keyed by the data
   direction on both sides: the sender's store of unacked sends and the
   receiver's dedup for the data it gets.

   Sender: every seq below [next_seq] is allocated and was registered
   in the same call; the pending ones (not yet acked or given up) live
   in one of two stores. Recent sends sit in a power-of-two ring over
   [base, next_seq), indexed by [seq land (capacity - 1)]; [live] counts
   its pending slots. A slot is vacant when its [tries] is -1 — the
   state of every slot outside [base, next_seq). A pending slot also
   holds its current timer's deadline and whether the engine has armed
   (pushed) that timer yet. Pending sends below [base] are strays: one
   send stuck behind a partition must not hold the ring open over every
   later, long-acked slot. When the ring is full and at most a quarter
   of it is pending, the pending sends of its older half move to
   [strays] and the ring slides past them; otherwise it doubles. So the
   ring has fewer than eight slots per pending send at its last
   doubling. The strays are a subset of the pending sends, so both
   stores are bounded by the sends in flight, not by the length of the
   run.

   Receiver: every seq <= [cum] has arrived except the [holes];
   arrivals above it sit in a bitmap ring over (cum, cum + 8 *
   Bytes.length arrived], grown on demand up to [gap_window] bits. In-order
   traffic never allocates one. A seq that never arrives (its send was
   given up) would otherwise pin [cum] and grow the ring by one bit per
   later arrival: once the newest arrival is more than [gap_window]
   above [cum], [cum] slides up and every missing seq it passes becomes
   a hole, answered [`Fresh] once if a late copy still comes. *)
type stray = {
  s_payload : Obj.t;
  mutable s_tries : int;
  mutable s_deadline : float;
  mutable s_armed : bool
}

type link = {
  src : int;
  dst : int;
  mutable next_seq : int;
  mutable base : int;
  mutable payloads : Obj.t array;
  mutable tries : int array;
  mutable deadlines : float array;
  mutable armed : Bytes.t;  (* '\001' once the current timer is pushed *)
  mutable live : int;  (* pending slots in the ring *)
  strays : (int, stray) Hashtbl.t;  (* pending sends below [base] *)
  mutable cum : int;  (* -1 until seq 0 arrives *)
  mutable arrived : Bytes.t;
  mutable holes : (int, unit) Hashtbl.t option
      (* seqs <= [cum] still missing; created by the first slide *)
}

type t = {
  config : config;
  timeouts : float array;  (* timeout_table config *)
  (* the one-slot cell every time crosses the interface through: a
     float argument or result of a call that does not inline is boxed *)
  cell : float array;
  mutable rows : link option array array;  (* rows.(src).(dst) *)
  mutable in_flight : int;
  mutable retransmissions : int;
  mutable duplicates_suppressed : int;
  mutable abandoned : int
}

let create config =
  validate config;
  { config;
    timeouts = timeout_table config;
    cell = [| 0.0 |];
    rows = [||];
    in_flight = 0;
    retransmissions = 0;
    duplicates_suppressed = 0;
    abandoned = 0
  }

let config t = t.config
let cell t = t.cell

(* [a] extended to cover index [i], at least doubling. *)
let extend a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let link t ~src ~dst =
  if src >= Array.length t.rows then t.rows <- extend t.rows src [||];
  let row = t.rows.(src) in
  let row =
    if dst < Array.length row then row
    else begin
      let row = extend row dst None in
      t.rows.(src) <- row;
      row
    end
  in
  match row.(dst) with
  | Some l -> l
  | None ->
    let l =
      { src;
        dst;
        next_seq = 0;
        base = 0;
        payloads = [||];
        tries = [||];
        deadlines = [||];
        armed = Bytes.empty;
        live = 0;
        strays = Hashtbl.create 1;
        cum = -1;
        arrived = Bytes.empty;
        holes = None
      }
    in
    row.(dst) <- Some l;
    l

(* ------------------------------------------------------------------ *)
(* Sender store *)

let vacant_payload = Obj.repr 0

(* [tries] of a slot holding no send *)
let vacant = -1

let slot l seq = seq land (Array.length l.tries - 1)

let grow_window l =
  let cap = max 8 (2 * Array.length l.tries) in
  let payloads = Array.make cap vacant_payload
  and tries = Array.make cap vacant
  and deadlines = Array.make cap 0.0
  and armed = Bytes.make cap '\000' in
  for seq = l.base to l.next_seq - 1 do
    let i = slot l seq and j = seq land (cap - 1) in
    payloads.(j) <- l.payloads.(i);
    tries.(j) <- l.tries.(i);
    deadlines.(j) <- l.deadlines.(i);
    Bytes.set armed j (Bytes.get l.armed i)
  done;
  l.payloads <- payloads;
  l.tries <- tries;
  l.deadlines <- deadlines;
  l.armed <- armed

(* [seq] >= [base] lies in the ring; it is pending there iff its slot is
   not vacant. *)
let ring_pending l seq = seq < l.next_seq && l.tries.(slot l seq) >= 0

(* The stray for [seq] < [base]; the table is empty on every path but a
   straggler's, so the common miss never hashes. *)
let stray l seq =
  if Hashtbl.length l.strays = 0 then None else Hashtbl.find_opt l.strays seq

let advance_base l =
  while l.base < l.next_seq && l.tries.(slot l l.base) = vacant do
    l.base <- l.base + 1
  done

(* Discharge the pending send [seq] (acked or given up). *)
let vacate t l seq =
  if seq >= l.base then begin
    let i = slot l seq in
    l.payloads.(i) <- vacant_payload;
    l.tries.(i) <- vacant;
    l.live <- l.live - 1;
    advance_base l
  end
  else Hashtbl.remove l.strays seq;
  t.in_flight <- t.in_flight - 1

(* The ring is full: slide it past its older half when at most a quarter
   of its slots are pending, moving that half's pending sends to the
   strays; otherwise double it. *)
let make_room l =
  let cap = Array.length l.tries in
  if cap >= 8 && 4 * l.live <= cap then begin
    for seq = l.base to l.base + (cap / 2) - 1 do
      let i = slot l seq in
      if l.tries.(i) >= 0 then begin
        Hashtbl.replace l.strays seq
          { s_payload = l.payloads.(i);
            s_tries = l.tries.(i);
            s_deadline = l.deadlines.(i);
            s_armed = Bytes.get l.armed i <> '\000'
          };
        l.payloads.(i) <- vacant_payload;
        l.tries.(i) <- vacant;
        l.live <- l.live - 1
      end
    done;
    l.base <- l.base + (cap / 2);
    advance_base l
  end
  else grow_window l

let register t l payload =
  let seq = l.next_seq in
  if seq > max_seq then
    invalid_arg
      (Printf.sprintf "Channel.register: link %d->%d exhausted %d sequence numbers"
         l.src l.dst (max_seq + 1));
  if seq - l.base >= Array.length l.tries then make_room l;
  let i = slot l seq in
  l.payloads.(i) <- payload;
  l.tries.(i) <- 0;
  l.deadlines.(i) <- Float.infinity;
  Bytes.set l.armed i '\000';
  l.next_seq <- seq + 1;
  l.live <- l.live + 1;
  t.in_flight <- t.in_flight + 1;
  t.cell.(0) <- t.timeouts.(0);
  seq

(* Every operation below takes the ring's path for [seq] >= [base] and
   the stray's otherwise, with the same logic on each. Each reads the
   time it is given from [t.cell] and leaves the time it returns
   there. *)

let not_pending where = invalid_arg ("Channel." ^ where ^ ": seq not pending")

let set_deadline t l ~seq ~armed =
  let deadline = t.cell.(0) in
  if seq >= l.base then begin
    if not (ring_pending l seq) then not_pending "set_deadline";
    let i = slot l seq in
    l.deadlines.(i) <- deadline;
    Bytes.set l.armed i (if armed then '\001' else '\000')
  end
  else
    match stray l seq with
    | Some s ->
      s.s_deadline <- deadline;
      s.s_armed <- armed
    | None -> not_pending "set_deadline"

let arm t l ~seq =
  let at = t.cell.(0) in
  if seq >= l.base then
    ring_pending l seq
    &&
    let i = slot l seq in
    Bytes.get l.armed i = '\000'
    && at >= l.deadlines.(i)
    &&
    (Bytes.set l.armed i '\001';
     t.cell.(0) <- l.deadlines.(i);
     true)
  else
    match stray l seq with
    | Some s when (not s.s_armed) && at >= s.s_deadline ->
      s.s_armed <- true;
      t.cell.(0) <- s.s_deadline;
      true
    | _ -> false

(* An ack landing at [at] beats the timer when it lands strictly before
   the deadline, or at it while the timer is unqueued: a timer pushed
   from then on would pop after the ack. A queued timer pops first at a
   tie. *)

(* Discharge [seq] if it is pending. *)
let ack t l ~seq =
  if seq >= l.base then (if ring_pending l seq then vacate t l seq)
  else if Option.is_some (stray l seq) then vacate t l seq

let settle t l ~seq =
  let at = t.cell.(0) in
  if seq >= l.base then
    (not (ring_pending l seq))
    ||
    let i = slot l seq in
    let deadline = l.deadlines.(i) in
    let early =
      if Bytes.get l.armed i = '\000' then at <= deadline else at < deadline
    in
    if early then vacate t l seq;
    early
  else
    match stray l seq with
    | None -> true
    | Some s ->
      let early =
        if s.s_armed then at < s.s_deadline else at <= s.s_deadline
      in
      if early then vacate t l seq;
      early

let give_up t l seq =
  vacate t l seq;
  t.abandoned <- t.abandoned + 1;
  `Give_up

(* The retransmission after [tries] timeouts: the next timeout goes to
   the cell. *)
let retransmit t ~tries =
  t.retransmissions <- t.retransmissions + 1;
  t.cell.(0) <- t.timeouts.(min tries (Array.length t.timeouts - 1));
  `Retransmit

let on_timer t l ~seq =
  if seq >= l.base then
    if not (ring_pending l seq) then `Done
    else begin
      let i = slot l seq in
      if l.tries.(i) >= t.config.max_retries then give_up t l seq
      else begin
        l.tries.(i) <- l.tries.(i) + 1;
        retransmit t ~tries:l.tries.(i)
      end
    end
  else
    match stray l seq with
    | None -> `Done
    | Some s when s.s_tries >= t.config.max_retries -> give_up t l seq
    | Some s ->
      s.s_tries <- s.s_tries + 1;
      retransmit t ~tries:s.s_tries

let payload l ~seq =
  if seq >= l.base then begin
    if not (ring_pending l seq) then not_pending "payload";
    l.payloads.(slot l seq)
  end
  else
    match stray l seq with
    | Some s -> s.s_payload
    | None -> not_pending "payload"

let window_slots t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some l -> acc + Array.length l.tries + Hashtbl.length l.strays)
        acc row)
    0 t.rows

(* ------------------------------------------------------------------ *)
(* Receiver dedup *)

(* Bit [p] of a bitmap. *)
let test_bit b p = Bytes.get_uint8 b (p lsr 3) land (1 lsl (p land 7)) <> 0

let flip_bit b p =
  Bytes.set_uint8 b (p lsr 3)
    (Bytes.get_uint8 b (p lsr 3) lxor (1 lsl (p land 7)))

let nbits b = 8 * Bytes.length b

(* Out-of-order arrival of [seq] > cum recorded? *)
let has_arrived l seq =
  seq - l.cum <= nbits l.arrived
  && test_bit l.arrived (seq land (nbits l.arrived - 1))

let flip l seq = flip_bit l.arrived (seq land (nbits l.arrived - 1))

(* The widest the bitmap grows, in bits (a power of two). *)
let gap_window = 4096

(* Widen the bitmap to cover (cum, seq], re-placing the recorded
   arrivals. *)
let grow_arrived l seq =
  let old = l.arrived in
  let bits = ref (max 16 (2 * nbits old)) in
  while !bits < seq - l.cum do
    bits := 2 * !bits
  done;
  l.arrived <- Bytes.make (!bits / 8) '\000';
  for s = l.cum + 1 to l.cum + nbits old do
    if test_bit old (s land (nbits old - 1)) then flip l s
  done

(* Advance [cum] over the arrivals recorded just above it. *)
let absorb l =
  while has_arrived l (l.cum + 1) do
    flip l (l.cum + 1);
    l.cum <- l.cum + 1
  done

(* Slide [cum] up to [upto], recording each missing seq it passes as a
   hole. *)
let slide l upto =
  let holes =
    match l.holes with
    | Some holes -> holes
    | None ->
      let holes = Hashtbl.create 8 in
      l.holes <- Some holes;
      holes
  in
  while l.cum < upto do
    let s = l.cum + 1 in
    if has_arrived l s then flip l s else Hashtbl.replace holes s ();
    l.cum <- s
  done;
  absorb l

let duplicate t =
  t.duplicates_suppressed <- t.duplicates_suppressed + 1;
  `Duplicate

(* [`Fresh] exactly once per seq. *)
let receive t l ~seq =
  if seq <= l.cum then (
    match l.holes with
    | Some holes when Hashtbl.mem holes seq ->
      Hashtbl.remove holes seq;
      `Fresh
    | Some _ | None -> duplicate t)
  else if has_arrived l seq then duplicate t
  else begin
    if seq - l.cum > gap_window then slide l (seq - gap_window);
    if seq = l.cum + 1 then begin
      l.cum <- seq;
      absorb l
    end
    else begin
      if seq - l.cum > nbits l.arrived then grow_arrived l seq;
      flip l seq
    end;
    `Fresh
  end

let in_flight t = t.in_flight
let retransmissions t = t.retransmissions
let duplicates_suppressed t = t.duplicates_suppressed
let abandoned t = t.abandoned
