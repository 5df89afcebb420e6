(* Tests for the discrete-event simulator: RNG, event queue, delay
   models, and engine semantics (reliable delivery, crash behaviour,
   determinism). *)

module Rng = Simnet.Rng
module Delay = Simnet.Delay
module Event_queue = Simnet.Event_queue
module Engine = Simnet.Engine

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let rng_tests =
  [ qtest "same seed, same stream" QCheck2.Gen.int (fun seed ->
        let a = Rng.create seed and b = Rng.create seed in
        List.init 50 (fun _ -> Rng.int a max_int)
        = List.init 50 (fun _ -> Rng.int b max_int));
    qtest "int respects bound" QCheck2.Gen.(pair int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        List.init 100 (fun _ -> Rng.int rng bound)
        |> List.for_all (fun x -> x >= 0 && x < bound));
    qtest "int_in respects range"
      QCheck2.Gen.(triple int (int_range (-50) 50) (int_range 0 100))
      (fun (seed, lo, span) ->
        let hi = lo + span in
        let rng = Rng.create seed in
        List.init 100 (fun _ -> lo + Rng.int rng (hi - lo + 1))
        |> List.for_all (fun x -> x >= lo && x <= hi));
    qtest "float respects bound" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create seed in
        List.init 100 (fun _ -> Rng.float rng 3.5)
        |> List.for_all (fun x -> x >= 0. && x < 3.5));
    qtest "exponential is positive" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create seed in
        List.init 100 (fun _ -> Rng.exponential rng ~mean:2.0)
        |> List.for_all (fun x -> x >= 0.));
    qtest "split streams differ from parent continuation" QCheck2.Gen.int
      (fun seed ->
        let parent = Rng.create seed in
        let child = Rng.split parent in
        let a = List.init 20 (fun _ -> Rng.int parent max_int) in
        let b = List.init 20 (fun _ -> Rng.int child max_int) in
        a <> b);
    qtest "shuffle permutes" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create seed in
        let a = Array.init 30 (fun i -> i) in
        Rng.shuffle_in_place rng a;
        List.sort compare (Array.to_list a) = List.init 30 (fun i -> i));
    Alcotest.test_case "invalid bounds rejected" `Quick (fun () ->
        let rng = Rng.create 1 in
        Alcotest.check_raises "zero bound"
          (Invalid_argument "Rng.int: non-positive bound") (fun () ->
            ignore (Rng.int rng 0));
        Alcotest.check_raises "negative bound"
          (Invalid_argument "Rng.int: non-positive bound") (fun () ->
            ignore (Rng.int rng (-3))));
    (* a crude uniformity check: mean of many draws near bound/2 *)
    Alcotest.test_case "rough uniformity" `Quick (fun () ->
        let rng = Rng.create 99 in
        let n = 20_000 in
        let sum = ref 0 in
        for _ = 1 to n do
          sum := !sum + Rng.int rng 100
        done;
        let mean = float_of_int !sum /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "mean %.2f within [47, 52]" mean)
          true
          (mean > 47. && mean < 52.))
  ]

(* ------------------------------------------------------------------ *)
(* Event queue *)

(* the engine pushes tagged events and pops with pop_exn; these are
   the plain forms the tests read better with *)
let push q ~time payload = Event_queue.push_tagged q ~time ~tag:0 payload

let pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.next_time q in
    Some (time, Event_queue.pop_exn q)

let drain q =
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop_exn q)
  done

let queue_tests =
  [ qtest "pops in time order"
      QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 1000.))
      (fun times ->
        let q = Event_queue.create () in
        List.iteri (fun i time -> push q ~time i) times;
        let rec drain acc =
          match pop q with
          | None -> List.rev acc
          | Some (time, _) -> drain (time :: acc)
        in
        let popped = drain [] in
        popped = List.sort compare times);
    qtest "ties break by insertion order"
      QCheck2.Gen.(int_range 1 100)
      (fun count ->
        let q = Event_queue.create () in
        for i = 0 to count - 1 do
          push q ~time:1.0 i
        done;
        let rec drain acc =
          match pop q with
          | None -> List.rev acc
          | Some (_, payload) -> drain (payload :: acc)
        in
        drain [] = List.init count (fun i -> i));
    Alcotest.test_case "size / peek / clear" `Quick (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
        push q ~time:5.0 "b";
        push q ~time:2.0 "a";
        Alcotest.(check int) "size" 2 (Event_queue.size q);
        Alcotest.(check (float 0.)) "peek" 2.0 (Event_queue.next_time q);
        drain q;
        Alcotest.(check bool) "cleared" true (Event_queue.is_empty q));
    Alcotest.test_case "NaN rejected" `Quick (fun () ->
        let q = Event_queue.create () in
        Alcotest.check_raises "nan"
          (Invalid_argument "Event_queue.push: NaN time") (fun () ->
            push q ~time:Float.nan ()));
    (* Model-based test: random interleavings of every queue operation
       (both push paths, pops, clears) against a sorted-list reference.
       The model keeps (time, seq, tag, payload) sorted stably by
       (time, seq) — exactly the documented delivery order — and every
       observation the queue offers (size, next_time, unsafe_times.(0),
       unsafe_tags.(0), popped payload) is checked at each step. Each
       case draws its times from one distribution, some of them
       relative to the last popped time, as the engine's pushes are
       relative to its clock:
       - uniform over [0, 100];
       - the integers 0..8, so long equal-time runs check FIFO order
         within a tie;
       - one time only: a tie far longer than a bucket holds;
       - the last popped time plus a multiple of 1/8, or that plus or
         minus a hair or a bucket. The ring's window starts at the last
         popped time's bucket and spans a multiple of 64 buckets of
         width 1/512, so these times straddle its edges, and a value
         pushed past the window (to the heap) recurs once the window
         reaches it (to the ring): a cross-tier tie;
       - the last popped time plus [-1, 2] with many pops, so pushes
         also land behind it;
       - mostly [0, 10] with 1e300, infinity and neg_infinity mixed in;
       - bulk far-future pushes in [1024, 2048) first, then near-future
         operations, as a keyspace run queues its operations up front. *)
    (let op_gen ?(pop = 4) time =
       QCheck2.Gen.(
         frequency
           [ (3, map2 (fun t tag -> `Push (t, tag)) time (int_range 0 1000));
             ( 2,
               map2 (fun t tag -> `Push_inbox (t, tag)) time (int_range 0 1000)
             );
             (pop, pure `Pop);
             (1, pure `Clear)
           ])
     in
     (* a time: absolute, or an offset from the last popped time *)
     let fixed g = QCheck2.Gen.map (fun t -> (false, t)) g in
     let after_pop g = QCheck2.Gen.map (fun t -> (true, t)) g in
     let ops ?pop time =
       QCheck2.Gen.(list_size (int_range 0 200) (op_gen ?pop time))
     in
     let ops_gen =
       QCheck2.Gen.(
         oneof
           [ ops (fixed (float_bound_inclusive 100.));
             ops (fixed (map float_of_int (int_range 0 8)));
             ops (fixed (pure 1.0));
             ops
               (after_pop
                  (map2
                     (fun k d -> (Float.of_int k /. 8.) +. d)
                     (int_range 0 6)
                     (oneofl [ 0.; -1e-12; 1e-12; -1. /. 512.; 1. /. 512. ])));
             ops ~pop:8 (after_pop (float_range (-1.) 2.));
             ops
               (fixed
                  (frequency
                     [ (8, float_bound_inclusive 10.);
                       (1, pure 1e300);
                       (1, pure Float.infinity);
                       (1, pure Float.neg_infinity)
                     ]));
             map2 ( @ )
               (list_size (int_range 0 100)
                  (map
                     (fun t -> `Push ((false, t), 0))
                     (float_range 1024. 2047.)))
               (ops (after_pop (float_range 0. 2.)))
           ])
     in
     qtest ~count:700 "model: random op interleavings match a sorted list"
       ops_gen
       (fun ops ->
         let q = Event_queue.create () in
         (* reference: (time, seq, tag, payload), sorted by (time, seq) *)
         let model = ref [] in
         let seq = ref 0 in
         let insert (t, s, tag, p) =
           (* s is the largest seq so far, so a time tie sorts after the
              existing entries: insert after every t' <= t *)
           let rec ins = function
             | [] -> [ (t, s, tag, p) ]
             | ((t', _, _, _) as hd) :: tl ->
               if t' <= t then hd :: ins tl else (t, s, tag, p) :: hd :: tl
           in
           model := ins !model
         in
         let ok = ref true in
         let check b = if not b then ok := false in
         let last = ref 0.0 in
         let time (rel, t) = if rel then !last +. t else t in
         let check_head (t, _, tag, p) =
           check (Event_queue.next_time q = t);
           check ((Event_queue.unsafe_times q).(0) = t);
           check ((Event_queue.unsafe_tags q).(0) = tag);
           check (Event_queue.pop_exn q = p);
           last := t
         in
         List.iter
           (fun op ->
             (match op with
             | `Push (t, tag) ->
               let t = time t in
               Event_queue.push_tagged q ~time:t ~tag !seq;
               insert (t, !seq, tag, !seq);
               incr seq
             | `Push_inbox (t, tag) ->
               let t = time t in
               (Event_queue.inbox q).(0) <- t;
               Event_queue.push_inbox q ~tag !seq;
               insert (t, !seq, tag, !seq);
               incr seq
             | `Pop -> (
               match !model with
               | [] ->
                 check (Event_queue.is_empty q);
                 check (pop q = None)
               | hd :: tl ->
                 check_head hd;
                 model := tl)
             | `Clear ->
               List.iter check_head !model;
               model := []);
             check (Event_queue.size q = List.length !model);
             check (Event_queue.is_empty q = (!model = [])))
           ops;
         (* drain what's left: full delivery order must match *)
         List.iter check_head !model;
         check (Event_queue.is_empty q);
         !ok));
    Alcotest.test_case "queue survives clear and reuse at capacity" `Quick
      (fun () ->
        let q = Event_queue.create () in
        for round = 1 to 3 do
          for i = 0 to 99 do
            Event_queue.push_tagged q
              ~time:(float_of_int ((i * 7919) mod 100))
              ~tag:i i
          done;
          Alcotest.(check int) "filled" 100 (Event_queue.size q);
          if round < 3 then drain q
        done;
        let last = ref neg_infinity in
        while not (Event_queue.is_empty q) do
          let t = Event_queue.next_time q in
          Alcotest.(check bool) "monotone" true (t >= !last);
          last := t;
          ignore (Event_queue.pop_exn q : int)
        done)
  ]

(* ------------------------------------------------------------------ *)
(* Delay models *)

let delay_tests =
  [ qtest "draws respect the declared upper bound"
      QCheck2.Gen.(triple int (float_range 0.1 5.0) (float_range 0.0 5.0))
      (fun (seed, hi, lo_frac) ->
        let lo = lo_frac *. hi /. 5.0 in
        let rng = Rng.create seed in
        let models =
          [ Delay.constant hi;
            Delay.uniform ~lo ~hi;
            Delay.exponential ~mean:(hi /. 2.) ~cap:hi
          ]
        in
        List.for_all
          (fun m ->
            let bound = Option.get (Delay.upper_bound m) in
            List.init 50 (fun _ -> Delay.draw m rng ~src:0 ~dst:1)
            |> List.for_all (fun d -> d > 0. && d <= bound))
          models);
    Alcotest.test_case "per-link dispatches on endpoints" `Quick (fun () ->
        let m =
          Delay.per_link (fun ~src ~dst:_ ->
              if src = 0 then Delay.constant 9.0 else Delay.constant 1.0)
        in
        let rng = Rng.create 5 in
        Alcotest.(check (float 1e-9)) "slow" 9.0 (Delay.draw m rng ~src:0 ~dst:3);
        Alcotest.(check (float 1e-9)) "fast" 1.0 (Delay.draw m rng ~src:2 ~dst:3);
        Alcotest.(check (option (float 0.))) "no bound" None (Delay.upper_bound m));
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        let invalid f =
          match f () with exception Invalid_argument _ -> true | _ -> false
        in
        Alcotest.(check bool) "negative constant" true
          (invalid (fun () -> Delay.constant (-1.)));
        Alcotest.(check bool) "reversed range" true
          (invalid (fun () -> Delay.uniform ~lo:2. ~hi:1.));
        Alcotest.(check bool) "cap below mean" true
          (invalid (fun () -> Delay.exponential ~mean:2. ~cap:1.)))
  ]

(* ------------------------------------------------------------------ *)
(* Engine *)

(* a tiny ping-pong protocol: processes bounce a counter until it
   reaches a limit *)
type ping = Ping of int

(* A tie-heavy run: a constant-delay mesh where many injections share
   one timestamp, so nearly every event shares its time with others,
   and a crash and a restore land on delivery times. Each handler picks
   its destinations with the engine's RNG, so a dispatch order that
   differed anywhere would change the trace from then on. *)
let tie_mesh () =
  let engine = Engine.create ~seed:3 ~trace:true ~delay:(Delay.constant 1.0) () in
  let n = 5 in
  let pids =
    Array.init n (fun i -> Engine.reserve engine ~name:(string_of_int i))
  in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun ctx ~src:_ (Ping i) ->
          if i < 5 then
            for _ = 1 to 2 do
              let dst = pids.(Rng.int (Engine.rng_ctx ctx) n) in
              Engine.send ctx ~dst (Ping (i + 1))
            done))
    pids;
  for j = 0 to 19 do
    Engine.inject engine ~at:1.0 pids.(j mod n) (fun ctx ->
        Engine.send ctx ~dst:pids.((j + 1) mod n) (Ping 0))
  done;
  Engine.crash_at engine pids.(2) 3.0;
  Engine.restore_at engine pids.(2) 5.0;
  engine

let event_time = function
  | Engine.Sent { time; _ } | Delivered { time; _ } | Dropped { time; _ }
  | Lost { time; _ } | Crashed { time; _ } | Restored { time; _ }
  | PartitionStart { time; _ } | PartitionHeal { time; _ } -> time

let observe engine =
  ( Engine.trace_events engine,
    [ Engine.events_executed engine; Engine.messages_sent engine;
      Engine.messages_delivered engine; Engine.messages_dropped engine;
      Engine.pending_events engine ],
    Engine.now engine )

let engine_tests =
  [ Alcotest.test_case "messages are delivered, replies flow" `Quick (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let log = ref [] in
        let handler ctx ~src (Ping i) =
          log := (Engine.self ctx, i) :: !log;
          if i < 5 then Engine.send ctx ~dst:src (Ping (i + 1))
        in
        Engine.set_handler engine a handler;
        Engine.set_handler engine b handler;
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:b (Ping 0));
        Engine.run engine;
        Alcotest.(check int) "six deliveries" 6 (List.length !log);
        Alcotest.(check (float 1e-9)) "clock advanced" 6.0 (Engine.now engine);
        Alcotest.(check int) "sent counter" 6 (Engine.messages_sent engine);
        Alcotest.(check int) "delivered counter" 6
          (Engine.messages_delivered engine);
        Alcotest.(check int) "nothing dropped" 0
          (Engine.messages_dropped engine));
    Alcotest.test_case "crashed destination drops silently" `Quick (fun () ->
        let engine =
          Engine.create ~seed:1 ~trace:true ~delay:(Delay.constant 1.0) ()
        in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let received = ref 0 in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> incr received);
        Engine.set_handler engine b (fun _ ~src:_ (Ping _) -> incr received);
        Engine.crash_at engine b 0.5;
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:b (Ping 1));
        Engine.run engine;
        Alcotest.(check int) "not received" 0 !received;
        let dropped =
          List.exists
            (function Engine.Dropped _ -> true | _ -> false)
            (Engine.trace_events engine)
        in
        Alcotest.(check bool) "drop traced" true dropped;
        Alcotest.(check int) "drop counted" 1
          (Engine.messages_dropped engine));
    Alcotest.test_case "crashed process stops sending and timers die" `Quick
      (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let received = ref 0 in
        Engine.set_handler engine b (fun _ ~src:_ (Ping _) -> incr received);
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        (* a schedules a send for t=2 but crashes at t=1 *)
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.schedule_local ctx ~delay:2.0 (fun () ->
                Engine.send ctx ~dst:b (Ping 7)));
        Engine.crash_at engine a 1.0;
        Engine.run engine;
        Alcotest.(check int) "no message" 0 !received;
        Alcotest.(check bool) "a crashed" true (Engine.is_crashed engine a));
    Alcotest.test_case "sender may crash after send; delivery persists" `Quick
      (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 5.0) () in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let received = ref 0 in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        Engine.set_handler engine b (fun _ ~src:_ (Ping _) -> incr received);
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:b (Ping 1));
        Engine.crash_at engine a 1.0;
        (* crash happens at t=1, delivery at t=5 *)
        Engine.run engine;
        Alcotest.(check int) "delivered anyway" 1 !received);
    qtest ~count:50 "determinism: same seed, same trace" QCheck2.Gen.int
      (fun seed ->
        let run () =
          let engine =
            Engine.create ~seed ~trace:true
              ~delay:(Delay.uniform ~lo:0.1 ~hi:3.0) ()
          in
          let n = 4 in
          let pids =
            Array.init n (fun i ->
                Engine.reserve engine ~name:(string_of_int i))
          in
          Array.iter
            (fun pid ->
              Engine.set_handler engine pid (fun ctx ~src:_ (Ping i) ->
                  if i < 30 then begin
                    let dst =
                      pids.(Simnet.Rng.int (Engine.rng_ctx ctx) n)
                    in
                    Engine.send ctx ~dst (Ping (i + 1))
                  end))
            pids;
          Engine.inject engine ~at:0.0 pids.(0) (fun ctx ->
              Engine.send ctx ~dst:pids.(1) (Ping 0));
          Engine.run engine;
          (Engine.trace_events engine, Engine.now engine)
        in
        run () = run ());
    Alcotest.test_case "run ~until leaves later events queued" `Quick
      (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 10.0) () in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let received = ref 0 in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        Engine.set_handler engine b (fun _ ~src:_ (Ping _) -> incr received);
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:b (Ping 1));
        Engine.run ~until:5.0 engine;
        Alcotest.(check int) "not yet" 0 !received;
        Alcotest.(check int) "still queued" 1 (Engine.pending_events engine);
        Alcotest.(check (float 1e-9)) "clock at horizon" 5.0
          (Engine.now engine);
        Engine.run engine;
        Alcotest.(check int) "eventually" 1 !received);
    Alcotest.test_case "run ~until advances the clock past a dry queue"
      `Quick (fun () ->
        (* the queue drains at t=1, but the horizon is 5: the engine
           simulated the whole interval, so the clock must say so *)
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let a = Engine.reserve engine ~name:"a" in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        Engine.inject engine ~at:1.0 a (fun _ -> ());
        Engine.run ~until:5.0 engine;
        Alcotest.(check int) "drained" 0 (Engine.pending_events engine);
        Alcotest.(check (float 1e-9)) "clock at horizon" 5.0
          (Engine.now engine);
        (* an already-empty queue still advances, and never backwards *)
        Engine.run ~until:7.5 engine;
        Alcotest.(check (float 1e-9)) "advanced again" 7.5 (Engine.now engine);
        Engine.run ~until:2.0 engine;
        Alcotest.(check (float 1e-9)) "never backwards" 7.5
          (Engine.now engine));
    Alcotest.test_case "run and step agree under ties" `Quick (fun () ->
        let by_run = tie_mesh () in
        Engine.run by_run;
        let by_step = tie_mesh () in
        while Engine.step by_step do
          ()
        done;
        let trace, counters, now = observe by_run in
        let trace', counters', now' = observe by_step in
        Alcotest.(check bool) "same trace" true (trace = trace');
        Alcotest.(check (list int)) "same counters" counters counters';
        Alcotest.(check (float 0.)) "same clock" now now';
        let at t = List.filter (fun e -> event_time e = t) trace in
        Alcotest.(check bool) "deliveries tie at t=3" true
          (List.length
             (List.filter
                (function Engine.Delivered _ -> true | _ -> false)
                (at 3.0))
          > 1);
        Alcotest.(check bool) "the crash ties with them" true
          (List.exists
             (function Engine.Crashed _ -> true | _ -> false)
             (at 3.0));
        (* a horizon on the tie runs the whole tie and nothing later *)
        let split = tie_mesh () in
        Engine.run ~until:3.0 split;
        let head, _, now_head = observe split in
        Alcotest.(check bool) "prefix through the tie" true
          (head = List.filter (fun e -> event_time e <= 3.0) trace);
        Alcotest.(check (float 0.)) "clock at the tie" 3.0 now_head;
        Engine.run split;
        let trace'', counters'', _ = observe split in
        Alcotest.(check bool) "resumed trace" true (trace = trace'');
        Alcotest.(check (list int)) "resumed counters" counters counters'');
    Alcotest.test_case "an inject between the clock and a later head" `Quick
      (fun () ->
        (* run ~until stops with the head (two deliveries at 4.0) past
           the clock; injects then land between the two, and one ties
           with the head. Deliveries follow (time, scheduling order). *)
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 4.0) () in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let log = ref [] in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        Engine.set_handler engine b (fun ctx ~src:_ (Ping i) ->
            log := (Engine.now_ctx ctx, i) :: !log);
        let send_at at i =
          Engine.inject engine ~at a (fun ctx ->
              Engine.send ctx ~dst:b (Ping i))
        in
        send_at 0.0 0;
        send_at 0.0 1;
        Engine.run ~until:1.0 engine;
        Alcotest.(check (float 0.)) "clock at the horizon" 1.0
          (Engine.now engine);
        send_at 2.0 2;
        send_at 1.5 3;
        (* ties with the deliveries at 4.0, scheduled after them *)
        Engine.inject engine ~at:4.0 b (fun ctx ->
            log := (Engine.now_ctx ctx, 4) :: !log);
        send_at 1.5 5;
        Engine.run engine;
        Alcotest.(check (list (pair (float 0.) int)))
          "(time, scheduling order)"
          [ (4.0, 0); (4.0, 1); (4.0, 4); (5.5, 3); (5.5, 5); (6.0, 2) ]
          (List.rev !log));
    Alcotest.test_case "run and step agree across the ring window" `Quick
      (fun () ->
        (* Four relay chains at 1/16 steps keep the near-future ring
           busy; injections queued up front at 2.0 + k/16 sit in the
           far tier and tie with chain deliveries once the window
           reaches them. An inject between the clock and the head after
           run ~until must give the trace of one queued up front (no
           other event shares its time), by run or by step. *)
        let mesh ~late =
          let engine =
            Engine.create ~seed:4 ~trace:true ~delay:(Delay.constant 0.0625) ()
          in
          let n = 4 in
          let pids =
            Array.init n (fun i ->
                Engine.reserve engine ~name:(string_of_int i))
          in
          Array.iter
            (fun pid ->
              Engine.set_handler engine pid (fun ctx ~src:_ (Ping i) ->
                  if i < 48 then
                    let dst = pids.(Rng.int (Engine.rng_ctx ctx) n) in
                    Engine.send ctx ~dst (Ping (i + 1))))
            pids;
          Array.iteri
            (fun j pid ->
              Engine.inject engine ~at:0.0 pid (fun ctx ->
                  Engine.send ctx ~dst:pids.((j + 1) mod n) (Ping 0));
              Engine.inject engine
                ~at:(2.0 +. (Float.of_int j /. 16.))
                pid
                (fun ctx -> Engine.send ctx ~dst:pids.(j) (Ping 40)))
            pids;
          let inject () =
            Engine.inject engine ~at:1.03 pids.(0) (fun ctx ->
                Engine.send ctx ~dst:pids.(1) (Ping 30))
          in
          if late then begin
            Engine.run ~until:1.02 engine;
            inject ()
          end
          else inject ();
          (engine, pids.(0))
        in
        let upfront, p0 = mesh ~late:false in
        Engine.run upfront;
        let by_run, _ = mesh ~late:true in
        Engine.run by_run;
        let by_step, _ = mesh ~late:true in
        while Engine.step by_step do
          ()
        done;
        let trace, counters, now = observe upfront in
        List.iter
          (fun engine ->
            let trace', counters', now' = observe engine in
            Alcotest.(check bool) "same trace" true (trace = trace');
            Alcotest.(check (list int)) "same counters" counters counters';
            Alcotest.(check (float 0.)) "same clock" now now')
          [ by_run; by_step ];
        (* at 2.0 the injection queued up front (far tier) runs before
           the chain deliveries pushed at 1.9375 (ring) *)
        Alcotest.(check bool) "the earlier-scheduled event leads its tie"
          true
          (match List.filter (fun e -> event_time e = 2.0) trace with
          | Engine.Sent { src; dst; _ } :: Engine.Delivered _ :: _ ->
            src = p0 && dst = p0
          | _ -> false));
    Alcotest.test_case "event limit guard" `Quick (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let a = Engine.reserve engine ~name:"a" in
        (* a sends to itself forever *)
        Engine.set_handler engine a (fun ctx ~src:_ (Ping i) ->
            Engine.send ctx ~dst:a (Ping (i + 1)));
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:a (Ping 0));
        Alcotest.check_raises "limit" (Engine.Event_limit_exceeded 100)
          (fun () -> Engine.run ~max_events:100 engine));
    Alcotest.test_case "second handler installation rejected" `Quick
      (fun () ->
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let a = Engine.reserve engine ~name:"a" in
        Engine.set_handler engine a (fun _ ~src:_ (Ping _) -> ());
        Alcotest.check_raises "double"
          (Invalid_argument "Engine.set_handler: handler already installed")
          (fun () -> Engine.set_handler engine a (fun _ ~src:_ _ -> ())))
  ]

(* ------------------------------------------------------------------ *)
(* Trace checking: the simulator is itself validated against the model *)

let trace_tests =
  [ qtest ~count:40 "random protocol traces satisfy the channel axioms"
      QCheck2.Gen.int
      (fun seed ->
        (* run a real SODA execution with traces on, crashes included *)
        let params = Protocol.Params.make ~n:6 ~f:2 () in
        let engine =
          Engine.create ~seed ~trace:true
            ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make 32 'i') ~num_writers:1 ~num_readers:1
            ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make 32 'a');
        Soda.Deployment.read d ~reader:0 ~at:40.0 ();
        Soda.Deployment.crash_server d ~coordinate:1 ~at:20.0;
        Soda.Deployment.crash_server d ~coordinate:4 ~at:60.0;
        Engine.run engine;
        Simnet.Trace_check.check (Engine.trace_events engine) = Ok ());
    Alcotest.test_case "crash-free quiescent traces deliver everything"
      `Quick (fun () ->
        let engine =
          Engine.create ~seed:2 ~trace:true ~delay:(Delay.constant 1.0) ()
        in
        let a = Engine.reserve engine ~name:"a" in
        let b = Engine.reserve engine ~name:"b" in
        let handler ctx ~src (Ping i) =
          if i < 10 then Engine.send ctx ~dst:src (Ping (i + 1))
        in
        Engine.set_handler engine a handler;
        Engine.set_handler engine b handler;
        Engine.inject engine ~at:0.0 a (fun ctx ->
            Engine.send ctx ~dst:b (Ping 0));
        Engine.run engine;
        let events = Engine.trace_events engine in
        Alcotest.(check bool) "valid" true
          (Simnet.Trace_check.check events = Ok ());
        let count p = List.length (List.filter p events) in
        Alcotest.(check int) "all delivered"
          (count (function Engine.Sent _ -> true | _ -> false))
          (count (function Engine.Delivered _ -> true | _ -> false)));
    Alcotest.test_case "forged traces are rejected" `Quick (fun () ->
        let bad what events =
          Alcotest.(check bool) what true
            (Result.is_error (Simnet.Trace_check.check events))
        in
        bad "delivery without send"
          [ Engine.Delivered { time = 1.0; src = 0; dst = 1 } ];
        bad "clock reversal"
          [ Engine.Sent { time = 2.0; src = 0; dst = 1 };
            Engine.Delivered { time = 1.0; src = 0; dst = 1 }
          ];
        bad "double delivery of one send"
          [ Engine.Sent { time = 0.0; src = 0; dst = 1 };
            Engine.Delivered { time = 1.0; src = 0; dst = 1 };
            Engine.Delivered { time = 2.0; src = 0; dst = 1 }
          ];
        bad "delivery to crashed process"
          [ Engine.Sent { time = 0.0; src = 0; dst = 1 };
            Engine.Crashed { time = 0.5; pid = 1 };
            Engine.Delivered { time = 1.0; src = 0; dst = 1 }
          ];
        bad "restore of a live process"
          [ Engine.Restored { time = 0.0; pid = 3 } ];
        bad "double crash"
          [ Engine.Crashed { time = 0.0; pid = 3 };
            Engine.Crashed { time = 1.0; pid = 3 }
          ];
        (* a loss needs a cause: no partition covers the link and the
           run had no loss rate *)
        let lost =
          [ Engine.Sent { time = 0.0; src = 0; dst = 1 };
            Engine.Lost { time = 0.0; src = 0; dst = 1 }
          ]
        in
        bad "loss with no partition and zero loss rate" lost;
        Alcotest.(check bool) "the same loss under a loss rate" true
          (Simnet.Trace_check.check ~lossy:true lost = Ok ()));
    Alcotest.test_case "crash-restore-deliver is accepted" `Quick (fun () ->
        let events =
          [ Engine.Crashed { time = 0.0; pid = 1 };
            Engine.Restored { time = 1.0; pid = 1 };
            Engine.Sent { time = 2.0; src = 0; dst = 1 };
            Engine.Delivered { time = 3.0; src = 0; dst = 1 }
          ]
        in
        Alcotest.(check bool) "valid" true
          (Simnet.Trace_check.check events = Ok ()))
  ]

let () =
  Alcotest.run "simnet"
    [ ("rng", rng_tests);
      ("event-queue", queue_tests);
      ("delay", delay_tests);
      ("engine", engine_tests);
      ("trace-check", trace_tests)
    ]
