(* Per-step attribution of an engine run's wall time.

   The traced run drives the engine with [Engine.step] instead of
   [Engine.run] (both dispatch events in the same order) and reads the
   clock once per step. An observation-only tap records which message
   the step delivered; the step's interval is charged to that message's
   kind, or to "other" when the step delivered nothing (local actions,
   timers, acks, drops, losses). Intervals are chained — each starts
   where the previous one ended — so the charged times sum to the
   traced wall time and the loop's own bookkeeping lands in the next
   step. Everything stays in fixed arrays until the run ends. *)

module Engine = Simnet.Engine

type t = {
  kinds : string array;
      (** Kind names; index [Array.length kinds] is "other". *)
  self_s : float array;
  count : int array;
  peak_pending : int;  (** Max of [Engine.pending_events] after a step. *)
  wall_s : float  (** First step start to last step end. *)
}

let run ~kinds ~classify engine =
  let other = Array.length kinds in
  let self_s = Array.make (other + 1) 0.0 in
  let count = Array.make (other + 1) 0 in
  let last = ref other in
  Engine.set_tap engine
    { Engine.tap_deliver = (fun ~time:_ ~src:_ ~dst:_ m -> last := classify m);
      tap_ack = (fun ~time:_ ~src:_ ~dst:_ ~cumulative:_ ~seq:_ -> ())
    };
  let peak = ref (Engine.pending_events engine) in
  let t0 = Clock.now () in
  let prev = ref t0 in
  while Engine.step engine do
    let t = Clock.now () in
    let i = !last in
    self_s.(i) <- self_s.(i) +. (t -. !prev);
    count.(i) <- count.(i) + 1;
    prev := t;
    last := other;
    let p = Engine.pending_events engine in
    if p > !peak then peak := p
  done;
  { kinds; self_s; count; peak_pending = !peak; wall_s = !prev -. t0 }

let other t = Array.length t.kinds

let attributed_s t = Array.fold_left ( +. ) 0.0 t.self_s

let steps t = Array.fold_left ( + ) 0 t.count

(* [(name, self_s, count)] per kind, "other" last. *)
let rows t ~other_name =
  List.init
    (Array.length t.self_s)
    (fun i ->
      let name = if i = other t then other_name else t.kinds.(i) in
      (name, t.self_s.(i), t.count.(i)))
