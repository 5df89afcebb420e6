(* The reliable-channel substrate: exactly-once delivery over lossy
   links, and the backoff state machine itself.

   The headline properties drive a real engine with
   [~transport:(`Reliable _)]: for any loss schedule with drop
   probability p < 1 and any finite partition window, every logical
   send is handed to the destination handler exactly once within a
   finite number of retransmissions — the channel axiom SODA's proofs
   assume, rebuilt on top of an adversarial network. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Channel = Simnet.Channel

let qtest ?(count = 30) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* A generous retry budget: at p = 0.6 a data+ack round trip succeeds
   with probability 0.16, so 200 retries push the per-message failure
   probability below 1e-9 — any abandon is a real bug, not bad luck. *)
let patient = { Channel.default with max_retries = 200 }

type msg = Ping of int

(* [procs] processes; message [i] goes from process [i mod procs] to a
   pseudo-random destination, injected at time [i mod 17]. Returns the
   per-id delivery counts and the engine for counter assertions. *)
let run_lossy ~seed ~loss ~procs ~messages ?(duplication = 0.0)
    ?(delay = Delay.uniform ~lo:0.2 ~hi:2.0) ?partition_window ?crash_window
    () =
  let engine =
    Engine.create ~seed ~duplication ~transport:(`Reliable patient) ~delay ()
  in
  if loss > 0.0 then Engine.set_loss engine loss;
  let pids =
    Array.init procs (fun i -> Engine.reserve engine ~name:(string_of_int i))
  in
  let delivered = Hashtbl.create 64 in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun _ctx ~src:_ (Ping id) ->
          Hashtbl.replace delivered id
            (1 + Option.value ~default:0 (Hashtbl.find_opt delivered id))))
    pids;
  (match partition_window with
  | None -> ()
  | Some (from_, until_) ->
    (* cut every link into process 0 — the classic single-victim
       partition; everything must still arrive after the heal *)
    let links =
      List.concat_map
        (fun src -> if src = 0 then [] else [ (src, 0); (0, src) ])
        (List.init procs Fun.id)
    in
    Engine.partition_at engine ~links ~at:from_;
    Engine.heal_at engine ~links ~at:until_);
  (match crash_window with
  | None -> ()
  | Some (from_, until_) ->
    (* process 0 crashes and comes back; a crashed process runs no
       injected send, so the window should open after the last one
       (time 16) *)
    Engine.crash_at engine pids.(0) from_;
    Engine.restore_at engine pids.(0) until_);
  for id = 0 to messages - 1 do
    let src = pids.(id mod procs) in
    Engine.inject engine ~at:(float_of_int (id mod 17)) src (fun ctx ->
        let dst = pids.((id * 7) mod procs) in
        Engine.send ctx ~dst (Ping id))
  done;
  Engine.run engine;
  (delivered, engine)

let exactly_once ~messages delivered =
  let ok = ref true in
  for id = 0 to messages - 1 do
    if Hashtbl.find_opt delivered id <> Some 1 then ok := false
  done;
  !ok && Hashtbl.length delivered = messages

(* Every data arrival at a live destination, fresh or duplicate, sends
   exactly one ack of its own. *)
let one_ack_per_arrival engine =
  Engine.acks_sent engine
  = Engine.messages_delivered engine + Engine.duplicates_suppressed engine

let delivery_tests =
  [ qtest ~count:40 "exactly-once over arbitrary loss (p <= 0.6)"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 0.6 >>= fun loss ->
        int_range 2 8 >>= fun procs ->
        int_range 5 60 >|= fun messages -> (seed, loss, procs, messages))
      (fun (seed, loss, procs, messages) ->
        let delivered, engine = run_lossy ~seed ~loss ~procs ~messages () in
        exactly_once ~messages delivered
        && Engine.sends_abandoned engine = 0
        && Engine.channel_in_flight engine = 0
        && one_ack_per_arrival engine);
    qtest ~count:30 "exactly-once through a finite partition"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 0.3 >>= fun loss ->
        float_range 1.0 40.0 >>= fun from_ ->
        float_range 10.0 120.0 >|= fun width -> (seed, loss, from_, width))
      (fun (seed, loss, from_, width) ->
        let messages = 30 in
        let delivered, engine =
          run_lossy ~seed ~loss ~procs:4 ~messages
            ~partition_window:(from_, from_ +. width) ()
        in
        exactly_once ~messages delivered
        && Engine.sends_abandoned engine = 0
        && Engine.channel_in_flight engine = 0);
    qtest ~count:30 "exactly-once under channel-level duplication"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 0.4 >>= fun loss ->
        float_range 0.0 0.5 >|= fun duplication -> (seed, loss, duplication))
      (fun (seed, loss, duplication) ->
        let messages = 40 in
        let delivered, engine =
          run_lossy ~seed ~loss ~procs:5 ~messages ~duplication ()
        in
        exactly_once ~messages delivered
        && Engine.sends_abandoned engine = 0
        && Engine.channel_in_flight engine = 0
        && one_ack_per_arrival engine);
    qtest ~count:30 "lossy runs retransmit but deliver no extras"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let messages = 40 in
        let delivered, engine =
          run_lossy ~seed ~loss:0.4 ~procs:4 ~messages ()
        in
        exactly_once ~messages delivered
        && Engine.messages_lost engine > 0
        && Engine.retransmissions engine >= Engine.messages_lost engine / 2)
  ]

(* ------------------------------------------------------------------ *)
(* lazy retransmission timers: each path that arms one *)

(* Exactly-once, nothing abandoned, nothing left pending. *)
let drained ~messages (delivered, engine) =
  exactly_once ~messages delivered
  && Engine.sends_abandoned engine = 0
  && Engine.channel_in_flight engine = 0

let timer_tests =
  [ qtest ~count:20 "loss-free run queues no timer"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        int_range 2 8 >>= fun procs ->
        int_range 5 60 >|= fun messages -> (seed, procs, messages))
      (fun (seed, procs, messages) ->
        (* round trip <= 4 < rto = 5: every ack beats its deadline, so
           it settles when sent, no timer exists and each delivery is
           one step: events = deliveries + injections *)
        let ((_, engine) as run) =
          run_lossy ~seed ~loss:0.0 ~procs ~messages ()
        in
        drained ~messages run
        && Engine.retransmissions engine = 0
        && Engine.events_executed engine
           = messages + Engine.messages_delivered engine);
    qtest ~count:20 "late copies and acks arm the timer"
      QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 8))
      (fun (seed, procs) ->
        (* no loss, but round trips of 4-16 against deadlines of 5-5.5:
           timers armed by late landings fire and retransmit *)
        let messages = 40 in
        let ((_, engine) as run) =
          run_lossy ~seed ~loss:0.0 ~procs ~messages
            ~delay:(Delay.uniform ~lo:2.0 ~hi:8.0) ()
        in
        drained ~messages run && Engine.retransmissions engine > 0);
    qtest ~count:10 "a late ack arms the timer"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        (* with 4 processes, odd ids cross between processes 1 and 3
           and even ids are self-sends; links up the pid order take 1,
           down it 10, self-links 1. A 1 -> 3 copy lands on time but its
           ack lands at 11, past the 5-5.5 deadline; a 3 -> 1 copy lands
           late. Either way the timer fires exactly once and the first
           ack beats the second deadline (13-14.3). *)
        let delay =
          Delay.per_link (fun ~src ~dst ->
              Delay.constant (if src <= dst then 1.0 else 10.0))
        in
        let messages = 40 in
        let ((_, engine) as run) =
          run_lossy ~seed ~loss:0.0 ~procs:4 ~messages ~delay ()
        in
        drained ~messages run
        && Engine.retransmissions engine = messages / 2);
    qtest ~count:30 "a crashed destination arms the timer"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 17.0 20.0 >>= fun from_ ->
        float_range 5.0 80.0 >|= fun width -> (seed, from_, width))
      (fun (seed, from_, width) ->
        (* with 4 processes, process 0 sends only to itself (ids
           divisible by 4). Its last sends, injected at 15 and 16, land
           at 17-24 and are acked at 19-32, so the window drops some of
           them; a dropped copy arms its timer, and retransmissions
           after the restore deliver it *)
        let messages = 40 in
        let ((_, engine) as run) =
          run_lossy ~seed ~loss:0.0 ~procs:4 ~messages
            ~delay:(Delay.uniform ~lo:2.0 ~hi:8.0)
            ~crash_window:(from_, from_ +. width) ()
        in
        drained ~messages run
        && Engine.messages_dropped engine > 0
        && not (Engine.is_crashed engine 0))
  ]

(* ------------------------------------------------------------------ *)
(* acks settle when sent: each path of the rule *)

(* Jitter-free timers: the first deadline of a send made at 0 is exactly
   rto = 5, the second 8 after the first retransmission. *)
let exact = { Channel.default with jitter = 0.0 }

(* Processes 0 and 1 (pids 0 and 1); data on 0 -> 1 takes [data], acks
   on 1 -> 0 take [ack] (constants: no delay draw touches the rng).
   Process 0 sends one message at time 0; [setup] schedules faults
   before the run. Traced. *)
let one_send ?(seed = 0) ?(loss = 0.0) ?(duplication = 0.0)
    ?(setup = fun _ -> ()) ~data ~ack () =
  let delay =
    Delay.per_link (fun ~src ~dst:_ ->
        Delay.constant (if src = 0 then data else ack))
  in
  let engine =
    Engine.create ~seed ~trace:true ~duplication ~transport:(`Reliable exact)
      ~delay ()
  in
  if loss > 0.0 then Engine.set_loss engine loss;
  let a = Engine.reserve engine ~name:"a" in
  let b = Engine.reserve engine ~name:"b" in
  List.iter
    (fun pid -> Engine.set_handler engine pid (fun _ ~src:_ (Ping _) -> ()))
    [ a; b ];
  setup engine;
  Engine.inject engine ~at:0.0 a (fun ctx -> Engine.send ctx ~dst:b (Ping 0));
  engine

let trace_ok ?lossy engine =
  Simnet.Trace_check.check ?lossy (Engine.trace_events engine) = Ok ()

(* The trace records of acks (1 -> 0), as (time, kind). *)
let ack_records engine =
  List.filter_map
    (function
      | Engine.Sent { time; src = 1; dst = 0 } -> Some (time, "sent")
      | Engine.Delivered { time; src = 1; dst = 0 } -> Some (time, "delivered")
      | Engine.Dropped { time; src = 1; dst = 0 } -> Some (time, "dropped")
      | Engine.Lost { time; src = 1; dst = 0 } -> Some (time, "lost")
      | _ -> None)
    (Engine.trace_events engine)

(* Seeds 0-299 at which [one_send ~loss:0.5 ~duplication:0.9] loses
   exactly one of two first copies (so the timer is queued at the send)
   and the survivor's ack gets through, each with the engine stepped
   past that ack's transmission at time 1. *)
let twin_lost ~ack =
  List.filter_map
    (fun seed ->
      let engine =
        one_send ~seed ~loss:0.5 ~duplication:0.9 ~data:1.0 ~ack ()
      in
      ignore (Engine.step engine : bool);
      if Engine.messages_sent engine <> 2 || Engine.messages_lost engine <> 1
      then None
      else begin
        ignore (Engine.step engine : bool);
        if Engine.acks_sent engine = 1 && Engine.messages_lost engine = 1
        then Some engine
        else None
      end)
    (List.init 300 Fun.id)

let check_int = Alcotest.(check int)

let settle_tests =
  [ Alcotest.test_case "an ack at an unqueued deadline settles" `Quick
      (fun () ->
        (* the ack lands at 1 + 4 = 5, the deadline, with no timer
           queued: it settles when sent, and no timer is ever pushed *)
        let engine = one_send ~data:1.0 ~ack:4.0 () in
        Engine.run engine;
        check_int "retransmissions" 0 (Engine.retransmissions engine);
        check_int "steps: injection, data" 2 (Engine.events_executed engine);
        check_int "in flight" 0 (Engine.channel_in_flight engine);
        Alcotest.(check bool) "trace" true (trace_ok engine));
    Alcotest.test_case "an ack at a queued deadline still retransmits" `Quick
      (fun () ->
        (* one twin lost queues the timer at 5; the survivor lands at 1
           and its ack at 5, tied with the timer, which pops first and
           retransmits once; the ack's landing then discharges the send *)
        let runs = twin_lost ~ack:4.0 in
        Alcotest.(check bool) "the scenario occurs" true (runs <> []);
        List.iter
          (fun engine ->
            check_int "still pending after the ack is sent" 1
              (Engine.channel_in_flight engine);
            check_int "timer and ack queued" 2 (Engine.pending_events engine);
            Engine.run engine;
            check_int "retransmissions" 1 (Engine.retransmissions engine);
            check_int "in flight" 0 (Engine.channel_in_flight engine);
            Alcotest.(check bool) "trace" true (trace_ok ~lossy:true engine))
          runs);
    Alcotest.test_case "an early ack settles an armed send" `Quick (fun () ->
        (* one twin lost queues the timer at 5; the survivor's ack lands
           at 2 and discharges the send when it is sent; the timer pops
           as a no-op *)
        let runs = twin_lost ~ack:1.0 in
        Alcotest.(check bool) "the scenario occurs" true (runs <> []);
        List.iter
          (fun engine ->
            check_int "discharged when the ack is sent" 0
              (Engine.channel_in_flight engine);
            check_int "only the timer queued" 1 (Engine.pending_events engine);
            Engine.run engine;
            check_int "retransmissions" 0 (Engine.retransmissions engine);
            check_int "steps: injection, data, timer" 3
              (Engine.events_executed engine);
            Alcotest.(check bool) "trace" true (trace_ok ~lossy:true engine))
          runs);
    Alcotest.test_case "a late ack stops the next retransmission" `Quick
      (fun () ->
        (* the ack sent at 1 lands at 6, past the deadline 5: it is
           queued and arms the timer, which retransmits into a partition
           (lost, so the next timer is queued at 13). The late ack's
           landing at 6 discharges the send; the timer at 13 is a no-op *)
        let engine =
          one_send ~data:1.0 ~ack:5.0
            ~setup:(fun engine ->
              Engine.partition_at engine ~links:[ (0, 1) ] ~at:4.0;
              Engine.heal_at engine ~links:[ (0, 1) ] ~at:7.0)
            ()
        in
        Engine.run engine;
        check_int "retransmissions" 1 (Engine.retransmissions engine);
        check_int "lost" 1 (Engine.messages_lost engine);
        check_int "steps" 7 (Engine.events_executed engine);
        check_int "in flight" 0 (Engine.channel_in_flight engine);
        Alcotest.(check bool) "trace" true (trace_ok engine));
    Alcotest.test_case "acks to a crashed sender are dropped when sent" `Quick
      (fun () ->
        let run ~ack ~crash =
          let engine =
            one_send ~data:1.0 ~ack
              ~setup:(fun engine -> Engine.crash_at engine 0 crash)
              ()
          in
          Engine.run engine;
          Alcotest.(check bool) "trace" true (trace_ok engine);
          check_int "in flight" 0 (Engine.channel_in_flight engine);
          engine
        in
        (* crashed before the ack is sent at 1: dropped, at 1 *)
        let engine = run ~ack:1.0 ~crash:0.5 in
        check_int "dropped" 1 (Engine.messages_dropped engine);
        Alcotest.(check (list (pair (float 0.0) string)))
          "records" [ (1.0, "sent"); (1.0, "dropped") ] (ack_records engine);
        (* crashed after it is sent, before it lands at 2: delivered *)
        let engine = run ~ack:1.0 ~crash:1.5 in
        check_int "not dropped" 0 (Engine.messages_dropped engine);
        Alcotest.(check (list (pair (float 0.0) string)))
          "records" [ (1.0, "sent"); (1.0, "delivered") ] (ack_records engine);
        (* late acks: the one sent at 1 lands at 6, after the timer's
           retransmission at 5, whose duplicate is acked at 6 again;
           each ack is dropped once, when it is sent *)
        let engine = run ~ack:5.0 ~crash:0.5 in
        check_int "retransmissions" 1 (Engine.retransmissions engine);
        check_int "acks" 2 (Engine.acks_sent engine);
        check_int "dropped" 2 (Engine.messages_dropped engine);
        Alcotest.(check (list (pair (float 0.0) string)))
          "records"
          [ (1.0, "sent"); (1.0, "dropped"); (6.0, "sent"); (6.0, "dropped") ]
          (ack_records engine))
  ]

(* ------------------------------------------------------------------ *)
(* backoff arithmetic *)

let config_gen =
  QCheck2.Gen.(
    float_range 0.1 10.0 >>= fun rto ->
    float_range 1.0 3.0 >>= fun backoff ->
    float_range 0.0 100.0 >>= fun extra ->
    int_range 0 60 >|= fun retries ->
    ( { Channel.default with rto; backoff; max_rto = rto +. extra },
      retries ))

let rec monotone = function
  | a :: (b :: _ as rest) -> a <= b && monotone rest
  | _ -> true

let backoff_tests =
  [ qtest ~count:200 "backoff delays are monotone non-decreasing up to cap"
      config_gen
      (fun (c, retries) ->
        let s = Channel.backoff_schedule c ~retries in
        List.length s = retries
        && monotone s
        && List.for_all (fun d -> d >= c.Channel.rto && d <= c.Channel.max_rto) s);
    Alcotest.test_case "default schedule reaches its cap and stays" `Quick
      (fun () ->
        let s = Channel.backoff_schedule Channel.default ~retries:50 in
        Alcotest.(check bool) "monotone" true (monotone s);
        Alcotest.(check (float 1e-9)) "capped" Channel.default.Channel.max_rto
          (List.nth s 49);
        Alcotest.(check (float 1e-9)) "starts at rto"
          Channel.default.Channel.rto (List.hd s));
    Alcotest.test_case "validate rejects bad configs" `Quick (fun () ->
        let bad f =
          match (f () : Channel.t) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "rto" true
          (bad (fun () -> Channel.create { Channel.default with rto = 0.0 }));
        Alcotest.(check bool) "backoff" true
          (bad (fun () ->
               Channel.create { Channel.default with backoff = 0.9 }));
        Alcotest.(check bool) "max_rto" true
          (bad (fun () ->
               Channel.create { Channel.default with max_rto = 1.0 }));
        Alcotest.(check bool) "jitter" true
          (bad (fun () ->
               Channel.create { Channel.default with jitter = -0.1 }));
        Alcotest.(check bool) "max_retries" true
          (bad (fun () ->
               Channel.create { Channel.default with max_retries = -1 })))
  ]

(* ------------------------------------------------------------------ *)
(* the pure state machine, driven by hand *)

(* Times cross the channel's interface through its one-slot cell. *)
let put t time = (Channel.cell t).(0) <- time
let got t = (Channel.cell t).(0)

(* A send on [l]: its seq, the initial timeout left in the cell. *)
let register t l payload = Channel.register t l (Obj.repr payload)

let arm t l ~seq ~at =
  put t at;
  Channel.arm t l ~seq

let settle t l ~seq ~at =
  put t at;
  Channel.settle t l ~seq

let set_deadline t l ~seq ~armed deadline =
  put t deadline;
  Channel.set_deadline t l ~seq ~armed

(* [on_timer], with the retransmission's payload and next timeout. *)
let on_timer t l ~seq =
  match Channel.on_timer t l ~seq with
  | `Retransmit -> `Retransmit (Channel.payload l ~seq, got t)
  | (`Done | `Give_up) as r -> r

let sm_tests =
  [ Alcotest.test_case "receive is fresh once, duplicate after" `Quick
      (fun () ->
        let t = Channel.create Channel.default in
        let l12 = Channel.link t ~src:1 ~dst:2 in
        Alcotest.(check bool) "fresh" true (Channel.receive t l12 ~seq:0 = `Fresh);
        Alcotest.(check bool) "dup" true
          (Channel.receive t l12 ~seq:0 = `Duplicate);
        Alcotest.(check bool) "other link fresh" true
          (Channel.receive t (Channel.link t ~src:2 ~dst:1) ~seq:0 = `Fresh);
        Alcotest.(check int) "counted" 1 (Channel.duplicates_suppressed t));
    Alcotest.test_case "ack discharges and is idempotent" `Quick (fun () ->
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let seq = register t l "x" in
        Alcotest.(check int) "in flight" 1 (Channel.in_flight t);
        Channel.ack t l ~seq;
        Channel.ack t l ~seq;
        Alcotest.(check int) "discharged" 0 (Channel.in_flight t);
        Alcotest.(check bool) "timer is a no-op" true
          (Channel.on_timer t l ~seq = `Done));
    Alcotest.test_case "on_timer backs off then gives up" `Quick (fun () ->
        (* 8 retries run past the point where the default schedule
           reaches max_rto (its 7th timeout) *)
        let c = { Channel.default with max_retries = 8 } in
        let t = Channel.create c in
        let l = Channel.link t ~src:1 ~dst:2 in
        let seq = register t l "x" in
        let rtos = ref [ got t ] in
        let rec drive () =
          match on_timer t l ~seq with
          | `Retransmit (_, rto) ->
            rtos := rto :: !rtos;
            drive ()
          | `Give_up -> ()
          | `Done -> Alcotest.fail "unexpected `Done"
        in
        drive ();
        Alcotest.(check int) "retries" 8 (List.length !rtos - 1);
        Alcotest.(check (list (float 0.0))) "timeouts are the backoff schedule"
          (Channel.backoff_schedule c ~retries:9)
          (List.rev !rtos);
        Alcotest.(check int) "abandoned" 1 (Channel.abandoned t);
        Alcotest.(check int) "in flight" 0 (Channel.in_flight t));
    Alcotest.test_case "arm reports each deadline once" `Quick (fun () ->
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let seq = register t l "x" in
        let arm at = arm t l ~seq ~at in
        set_deadline t l ~seq ~armed:false 10.0;
        Alcotest.(check bool) "ack in time" false (arm 9.5);
        Alcotest.(check (float 0.0)) "cell untouched" 9.5 (got t);
        Alcotest.(check bool) "at the deadline" true (arm 10.0);
        Alcotest.(check (float 0.0)) "deadline in the cell" 10.0 (got t);
        Alcotest.(check bool) "already armed" false (arm Float.infinity);
        (match Channel.on_timer t l ~seq with
        | `Retransmit -> ()
        | `Done | `Give_up -> Alcotest.fail "expected a retransmission");
        set_deadline t l ~seq ~armed:false 20.0;
        Alcotest.(check bool) "lost copy" true (arm Float.infinity);
        Alcotest.(check (float 0.0)) "new deadline" 20.0 (got t);
        Channel.ack t l ~seq;
        Alcotest.(check bool) "acked" false (arm Float.infinity);
        Alcotest.(check bool) "no deadline once acked" true
          (got t = Float.infinity));
    Alcotest.test_case "settle discharges the acks that beat the timer"
      `Quick (fun () ->
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let send ~armed =
          let seq = register t l "x" in
          set_deadline t l ~seq ~armed 10.0;
          seq
        in
        let settle seq at = settle t l ~seq ~at in
        let unqueued = send ~armed:false and queued = send ~armed:true in
        let late = send ~armed:false in
        Alcotest.(check bool) "tie, no timer queued" true
          (settle unqueued 10.0);
        Alcotest.(check bool) "tie, timer queued" false (settle queued 10.0);
        Alcotest.(check bool) "after the deadline" false (settle late 10.5);
        Alcotest.(check int) "two still pending" 2 (Channel.in_flight t);
        Alcotest.(check bool) "before a queued deadline" true
          (settle queued 9.5);
        Alcotest.(check bool) "already discharged" true (settle unqueued 20.0);
        Alcotest.(check int) "one still pending" 1 (Channel.in_flight t);
        Channel.ack t l ~seq:late;
        Alcotest.(check int) "none pending" 0 (Channel.in_flight t));
    Alcotest.test_case "sequence numbers are per directed link" `Quick
      (fun () ->
        let t = Channel.create Channel.default in
        let l12 = Channel.link t ~src:1 ~dst:2 in
        Alcotest.(check int) "1->2 first" 0 (register t l12 "a");
        Alcotest.(check int) "1->2 second" 1 (register t l12 "b");
        Alcotest.(check int) "2->1 independent" 0
          (register t (Channel.link t ~src:2 ~dst:1) "c"));
    Alcotest.test_case "operations on a seq not pending raise" `Quick
      (fun () ->
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let seq = register t l "x" in
        Channel.ack t l ~seq;
        let raises f =
          match f () with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "set_deadline" true
          (raises (fun () -> set_deadline t l ~seq ~armed:false 1.0));
        Alcotest.(check bool) "payload" true
          (raises (fun () -> ignore (Channel.payload l ~seq : Obj.t))));
    Alcotest.test_case "the send/ack/timer loop allocates nothing" `Quick
      (fun () ->
        (* one link, every operation of the reliable path, times through
           the cell: no float crosses a call, so this holds whether or
           not the channel's code inlines into the caller *)
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let cell = Channel.cell t and payload = Obj.repr "x" in
        let loop rounds =
          let ok = ref 0 in
          for r = 1 to rounds do
            let now = float_of_int r in
            (* a send acked in time *)
            let seq = Channel.register t l payload in
            cell.(0) <- now +. cell.(0);
            Channel.set_deadline t l ~seq ~armed:false;
            if Channel.receive t l ~seq = `Fresh then incr ok;
            cell.(0) <- now +. 1.0;
            if Channel.settle t l ~seq then incr ok;
            (* a send whose ack is late: armed, retransmitted, acked *)
            let seq = Channel.register t l payload in
            cell.(0) <- now +. cell.(0);
            Channel.set_deadline t l ~seq ~armed:false;
            if Channel.receive t l ~seq = `Fresh then incr ok;
            cell.(0) <- now +. 100.0;
            if not (Channel.settle t l ~seq) then incr ok;
            if Channel.arm t l ~seq then incr ok;
            (match Channel.on_timer t l ~seq with
            | `Retransmit ->
              if Channel.payload l ~seq == payload then incr ok;
              cell.(0) <- now +. cell.(0);
              Channel.set_deadline t l ~seq ~armed:false
            | `Done | `Give_up -> ());
            Channel.ack t l ~seq
          done;
          !ok
        in
        (* warm up: the ring reaches its size, the cell its box *)
        Alcotest.(check int) "every step as expected" (6 * 100) (loop 100);
        let before = Gc.minor_words () in
        let ok = loop 10_000 in
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "every step as expected" (6 * 10_000) ok;
        (* [Gc.minor_words] boxes its own result: allow that one box *)
        Alcotest.(check bool)
          (Printf.sprintf "minor words over 10,000 rounds (%.0f)" words)
          true (words <= 2.0);
        Alcotest.(check int) "nothing left in flight" 0 (Channel.in_flight t))
  ]

(* ------------------------------------------------------------------ *)
(* model-based: the per-link window against a table-based reference *)

(* The reference keeps the channel's semantics in the most direct form:
   a map of pending sends and a set of delivered (link, seq) keys. *)
module Model = struct
  module K3 = Map.Make (struct
    type t = int * int * int

    let compare = compare
  end)

  module K2 = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  module Seen = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end)

  type entry = { payload : Obj.t; tries : int; rto : float }

  type t = {
    config : Channel.config;
    mutable pending : entry K3.t;
    mutable seen : Seen.t;
    mutable next_seq : int K2.t;
    mutable retransmissions : int;
    mutable duplicates : int;
    mutable abandoned : int
  }

  let create config =
    { config;
      pending = K3.empty;
      seen = Seen.empty;
      next_seq = K2.empty;
      retransmissions = 0;
      duplicates = 0;
      abandoned = 0
    }

  let get m k ~default = Option.value ~default (K2.find_opt k m)

  (* the next seq on [link], pending from now on; and its timeout *)
  let register t ((src, dst) as link) payload =
    let seq = get t.next_seq link ~default:0 in
    t.next_seq <- K2.add link (seq + 1) t.next_seq;
    t.pending <-
      K3.add (src, dst, seq)
        { payload; tries = 0; rto = t.config.rto }
        t.pending;
    (seq, t.config.rto)

  let receive t (src, dst) seq =
    if Seen.mem (src, dst, seq) t.seen then begin
      t.duplicates <- t.duplicates + 1;
      `Duplicate
    end
    else begin
      t.seen <- Seen.add (src, dst, seq) t.seen;
      `Fresh
    end

  let ack t (src, dst) seq = t.pending <- K3.remove (src, dst, seq) t.pending

  let on_timer t (src, dst) seq =
    match K3.find_opt (src, dst, seq) t.pending with
    | None -> `Done
    | Some e when e.tries >= t.config.max_retries ->
      t.pending <- K3.remove (src, dst, seq) t.pending;
      t.abandoned <- t.abandoned + 1;
      `Give_up
    | Some e ->
      let rto = Float.min (e.rto *. t.config.backoff) t.config.max_rto in
      t.pending <-
        K3.add (src, dst, seq) { e with tries = e.tries + 1; rto } t.pending;
      t.retransmissions <- t.retransmissions + 1;
      `Retransmit (e.payload, rto)

  let in_flight t = K3.cardinal t.pending
end

(* Links 0-2 carry sends; link 3 only ever receives, so its receiver
   state lives on a link with no sender state. *)
let links = [| (0, 1); (1, 0); (2, 7); (7, 3) |]

(* Raw draws; [run_ops] maps them into each op's reachable range at
   execution time (acks never name a seq the sender has not allocated
   beyond a small margin). *)
type op =
  | Send of int
  | Receive of int * int
  | Ack of int * int
  | Timer of int * int

let op_gen =
  let open QCheck2.Gen in
  let link = int_range 0 3 and sender = int_range 0 2 in
  let r = int_range 0 1000 in
  (* mostly near the front, sometimes far past a 16-seq window, and now
     and then past the receiver's 4,096-seq gap window *)
  let arrival =
    frequency
      [ (4, int_range 0 40); (1, int_range 0 300); (1, int_range 0 12_000) ]
  in
  frequency
    [ (4, map (fun l -> Send l) sender);
      (5, map2 (fun l s -> Receive (l, s)) link arrival);
      (3, map2 (fun l s -> Timer (l, s)) sender r);
      (3, map2 (fun l s -> Ack (l, s)) sender r)
    ]

let show_op = function
  | Send l -> Printf.sprintf "send %d" l
  | Receive (l, s) -> Printf.sprintf "recv %d %d" l s
  | Ack (l, s) -> Printf.sprintf "ack %d %d" l s
  | Timer (l, s) -> Printf.sprintf "timer %d %d" l s

let same_timer a b =
  match (a, b) with
  | `Done, `Done | `Give_up, `Give_up -> true
  | `Retransmit (p, r), `Retransmit (p', r') -> p == p' && Float.equal r r'
  | _ -> false

(* Run [ops] on both, comparing every result and every counter after
   every step. *)
let run_ops ~max_retries ops =
  let config = { Channel.default with max_retries } in
  let t = Channel.create config and m = Model.create config in
  let next l = Model.get m.Model.next_seq links.(l) ~default:0 in
  let step op =
    let link =
      links.(match op with
             | Send l | Receive (l, _) | Ack (l, _) | Timer (l, _) -> l)
    in
    let src, dst = link in
    let l = Channel.link t ~src ~dst in
    let agree =
      match op with
      | Send _ ->
        let payload = Obj.repr (ref 0) in
        let seq = Channel.register t l payload in
        let seq', rto = Model.register m link payload in
        seq = seq' && Float.equal (got t) rto
      | Receive (_, seq) -> Channel.receive t l ~seq = Model.receive m link seq
      | Ack (lk, r) ->
        let seq = r mod (next lk + 3) in
        Channel.ack t l ~seq;
        Model.ack m link seq;
        true
      | Timer (lk, r) ->
        let seq = r mod (next lk + 2) in
        same_timer (on_timer t l ~seq) (Model.on_timer m link seq)
    in
    agree
    && Channel.in_flight t = Model.in_flight m
    && Channel.retransmissions t = m.Model.retransmissions
    && Channel.duplicates_suppressed t = m.Model.duplicates
    && Channel.abandoned t = m.Model.abandoned
  in
  List.for_all step ops

let model_tests =
  [ qtest ~count:300 "immediate mode matches the table model"
      ~print:(fun (r, ops) ->
        Printf.sprintf "max_retries=%d [%s]" r
          (String.concat "; " (List.map show_op ops)))
      QCheck2.Gen.(pair (int_range 0 3) (list_size (int_range 1 400) op_gen))
      (fun (max_retries, ops) -> run_ops ~max_retries ops)
  ]

(* One send stuck behind a partition while thousands of later sends on
   its link are acked: the sender store stays sized by the sends in
   flight, and the stuck send's timer answers exactly as the table
   model's (the unbounded-window semantics) until it is acked after the
   heal or abandoned at [max_retries]. *)
let stuck_send ~max_retries ~healed =
  let config = { Channel.default with max_retries } in
  let t = Channel.create config and m = Model.create config in
  let link = (1, 2) in
  let l = Channel.link t ~src:1 ~dst:2 in
  let send () =
    let payload = Obj.repr (ref 0) in
    let seq = Channel.register t l payload in
    ignore (Model.register m link payload : int * float);
    seq
  in
  let ack seq =
    Channel.ack t l ~seq;
    Model.ack m link seq
  in
  let timer () =
    let r = on_timer t l ~seq:0 in
    Alcotest.(check bool) "timer as in the model" true
      (same_timer r (Model.on_timer m link 0));
    r
  in
  let stuck = send () in
  let worst = ref 0 and timers = ref [] in
  for i = 1 to 5_000 do
    (* four later sends in flight at any time *)
    ignore (send () : int);
    if i > 4 then ack (i - 4);
    worst := max !worst (Channel.window_slots t);
    if i mod 250 = 0 && List.length !timers < max_retries then
      timers := timer () :: !timers
  done;
  (* the stray keeps its deadline and arming like a ring slot *)
  set_deadline t l ~seq:stuck ~armed:false 42.0;
  Alcotest.(check bool) "too early to arm" false (arm t l ~seq:stuck ~at:41.0);
  Alcotest.(check bool) "armed once" true (arm t l ~seq:stuck ~at:42.0);
  Alcotest.(check (float 0.0)) "stray deadline" 42.0 (got t);
  Alcotest.(check bool) "not twice" false (arm t l ~seq:stuck ~at:50.0);
  for i = 4_997 to 5_000 do
    ack i
  done;
  Alcotest.(check int) "only the stuck send in flight" 1 (Channel.in_flight t);
  Alcotest.(check bool) "store bounded by sends in flight" true (!worst <= 64);
  if healed then begin
    Alcotest.(check bool) "an ack at the armed deadline is late" false
      (settle t l ~seq:stuck ~at:42.0);
    ack stuck;
    Alcotest.(check bool) "acked after the heal" true (timer () = `Done);
    Alcotest.(check int) "nothing in flight" 0 (Channel.in_flight t)
  end
  else begin
    while timer () <> `Give_up do
      ()
    done;
    Alcotest.(check int) "abandoned once" 1 (Channel.abandoned t);
    Alcotest.(check int) "abandoned as in the model" m.Model.abandoned
      (Channel.abandoned t);
    Alcotest.(check int) "nothing in flight" 0 (Channel.in_flight t)
  end;
  Alcotest.(check int) "retransmissions as in the model"
    m.Model.retransmissions (Channel.retransmissions t);
  Alcotest.(check bool) "it retransmitted behind the later sends" true
    (List.exists (function `Retransmit _ -> true | _ -> false) !timers)

let stray_tests =
  [ Alcotest.test_case "a stuck send is acked after the heal" `Quick (fun () ->
        stuck_send ~max_retries:50 ~healed:true);
    Alcotest.test_case "a stuck send is abandoned at max_retries" `Quick
      (fun () -> stuck_send ~max_retries:12 ~healed:false);
    Alcotest.test_case "batches acked out of order behind a stray" `Quick
      (fun () ->
        (* batches of 40 sends in flight at once, each acked newest
           first, so the ring slides while most of a batch is pending *)
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let stuck = register t l "stuck" in
        for _ = 1 to 100 do
          let batch = List.init 40 (fun i -> register t l i) in
          List.iter (fun seq -> Channel.ack t l ~seq) (List.rev batch)
        done;
        Alcotest.(check int) "the stuck send alone in flight" 1
          (Channel.in_flight t);
        (* at most 41 sends in flight, and the ring doubles only while
           more than a quarter of it is pending *)
        Alcotest.(check bool) "store bounded by the sends in flight" true
          (Channel.window_slots t <= 8 * 41);
        (* no deadline was ever set: an event at [infinity] arms it *)
        Alcotest.(check bool) "the stray is still pending" true
          (arm t l ~seq:stuck ~at:Float.infinity
          && Float.equal (got t) Float.infinity
          && Channel.on_timer t l ~seq:stuck <> `Done))
  ]

(* A send given up at max_retries leaves its seq missing for good; the
   receiver must not pay one bit per later arrival for it. *)
let receiver_gap_tests =
  [ Alcotest.test_case "a seq that never arrives leaves a hole, not a gap"
      `Quick (fun () ->
        let t = Channel.create Channel.default in
        let l = Channel.link t ~src:1 ~dst:2 in
        let receive seq = Channel.receive t l ~seq in
        let arrive ~from ~upto =
          for seq = from to upto do
            if receive seq <> `Fresh then Alcotest.failf "seq %d not fresh" seq
          done
        in
        (* seq 1 is the given-up send: nothing of it arrives until the
           very end *)
        arrive ~from:0 ~upto:0;
        arrive ~from:2 ~upto:10_001;
        let words_10k = Obj.reachable_words (Obj.repr t) in
        arrive ~from:10_002 ~upto:400_001;
        Alcotest.(check int) "link state flat from 10k to 400k arrivals"
          words_10k
          (Obj.reachable_words (Obj.repr t));
        List.iter
          (fun seq ->
            Alcotest.(check bool)
              (Printf.sprintf "seq %d again is a duplicate" seq)
              true
              (receive seq = `Duplicate))
          [ 0; 2; 300_000; 400_001 ];
        Alcotest.(check bool) "the hole's late copy is fresh once" true
          (receive 1 = `Fresh);
        Alcotest.(check bool) "then a duplicate" true (receive 1 = `Duplicate);
        Alcotest.(check int) "duplicates counted" 5
          (Channel.duplicates_suppressed t))
  ]

let () =
  Alcotest.run "channel"
    [ ("delivery", delivery_tests);
      ("timers", timer_tests);
      ("settle", settle_tests);
      ("backoff", backoff_tests);
      ("state-machine", sm_tests);
      ("model", model_tests);
      ("stray", stray_tests);
      ("receiver-gap", receiver_gap_tests)
    ]
