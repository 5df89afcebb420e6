(* End-to-end simulator & checker throughput, reported as JSON
   (Bench.emit) so successive runs can be archived as a trajectory.
   Invoked as

     dune exec bench/main.exe -- sim            # full
     dune exec bench/main.exe -- sim --smoke    # tiny quota, not gated

   Four probes:

   - "mesh": a raw engine workload (no protocol) — P processes bounce
     messages across random links until a hop budget is exhausted.
     Every delivery is one heap push + pop + dispatch, so events/sec
     here is the ceiling any protocol simulation can reach.
   - "mesh-reliable": the same workload over the ack/retransmit channel
     substrate at loss p = 0 — the retransmit layer's pure overhead.
     Compare events_per_s and the sent/delivered inflation against
     "mesh" to price `Reliable transport on a loss-free network.
   - "soda-soak": the default soak workload (SODA at n=25, f=12 with
     concurrent clients and staggered crashes) — events/sec and ops/sec
     as an experiment actually sees them.
   - "checker": Atomicity.check_tagged on a synthetic m-operation
     history — records per second through the full Lemma 2.1 check.
   - "retained": the words one SODA deployment keeps per completed
     operation once it is quiescent (gated lower-is-better: a count, so
     state that grows with the history fails however fast the host).

   Every simulated probe also reports the engine's message accounting
   (sent / dropped, and for the mesh probes lost / retransmissions) so
   lossy runs can be told apart from crash-lossy ones at a glance, and
   the steps the engine executed ("events", gated lower-is-better: a
   deterministic count, so a change that adds steps per delivery fails
   however fast the host). soda-soak runs through [Harness.Runner],
   whose raw transport never loses or retransmits, so it reports
   neither. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay

(* Per-call seconds of [f] (fresh state each call), averaged over one
   [min_elapsed] window. *)
let measure ~min_elapsed f =
  Bench.time_per_call ~trials:1 ~min_elapsed ~min_iters:2 f

(* The rows of one probe: [size] events (history records for the
   checker) in [seconds] per call. Gated: events_per_s, and the engine
   steps of a simulated probe. *)
let probe_rows ~probe ~size ~seconds ?ops ?traffic () =
  let traffic =
    match traffic with
    | None -> []
    | Some (events, sent, dropped) ->
      [ Bench.row ~better:Lower probe "events" "events" (float_of_int events);
        Bench.count probe "sent" "msgs" sent;
        (* messages to crashed processes *)
        Bench.count probe "dropped" "msgs" dropped
      ]
  in
  [ Bench.count probe "size" "events" size;
    Bench.row ~better:Higher probe "events_per_s" "events/s"
      (float_of_int size /. seconds)
  ]
  @ (match ops with
    | None -> []
    | Some ops ->
      [ Bench.row probe "ops_per_s" "ops/s" (float_of_int ops /. seconds) ])
  @ traffic

(* ------------------------------------------------------------------ *)
(* mesh: raw engine throughput *)

type mesh_msg = Hop of int

let mesh_events ?(transport = `Raw) ~procs ~messages ~hops () =
  let engine =
    Engine.create ~seed:42 ~transport ~delay:(Delay.uniform ~lo:0.1 ~hi:2.0) ()
  in
  let pids =
    Array.init procs (fun i -> Engine.reserve engine ~name:(string_of_int i))
  in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun ctx ~src:_ (Hop i) ->
          if i > 0 then begin
            let dst = pids.(Simnet.Rng.int (Engine.rng_ctx ctx) procs) in
            Engine.send ctx ~dst (Hop (i - 1))
          end))
    pids;
  for m = 0 to messages - 1 do
    Engine.inject engine ~at:0.0 pids.(m mod procs) (fun ctx ->
        Engine.send ctx ~dst:pids.((m + 1) mod procs) (Hop hops))
  done;
  Engine.run engine;
  ( Engine.messages_delivered engine,
    ( Engine.events_executed engine,
      Engine.messages_sent engine,
      Engine.messages_dropped engine ),
    (Engine.messages_lost engine, Engine.retransmissions engine) )

let mesh_point (opts : Bench.opts) ?(transport = `Raw) ~probe () =
  let procs = 64 in
  let messages, hops = if opts.smoke then (100, 50) else (1_000, 500) in
  let min_elapsed = if opts.smoke then 0.05 else 1.0 in
  let run = ref (0, (0, 0, 0), (0, 0)) in
  let seconds =
    measure ~min_elapsed (fun () ->
        run := mesh_events ~transport ~procs ~messages ~hops ())
  in
  let size, traffic, (lost, retransmissions) = !run in
  probe_rows ~probe ~size ~seconds ~traffic ()
  @ [ (* messages eaten by the link fault plane *)
      Bench.count probe "lost" "msgs" lost;
      Bench.count probe "retransmissions" "msgs" retransmissions
    ]

(* ------------------------------------------------------------------ *)
(* soda-soak: the default soak workload end to end *)

let soak_run ~ops_per_client () =
  let params = Protocol.Params.make ~n:25 ~f:12 () in
  let w =
    Harness.Workload.concurrent ~params ~value_len:256 ~seed:1 ~num_writers:4
      ~num_readers:4 ~ops_per_client
      ~delay:(Delay.exponential ~mean:1.0 ~cap:10.0) ()
  in
  let crashes = List.init 12 (fun i -> (2 * i, float_of_int (i * 80))) in
  let r =
    Harness.Runner.run Harness.Runner.Soda
      (Harness.Workload.with_crashes w crashes)
  in
  ( r.Harness.Runner.messages_delivered,
    Harness.Workload.total_ops w,
    ( r.Harness.Runner.events_executed,
      r.Harness.Runner.messages_sent,
      r.Harness.Runner.messages_dropped ) )

let soak_point (opts : Bench.opts) =
  let ops_per_client = if opts.smoke then 2 else 8 in
  let min_elapsed = if opts.smoke then 0.05 else 1.0 in
  let run = ref (0, 0, (0, 0, 0)) in
  let seconds =
    measure ~min_elapsed (fun () -> run := soak_run ~ops_per_client ())
  in
  let size, ops, traffic = !run in
  probe_rows ~probe:"soda-soak" ~size ~seconds ~ops ~traffic ()

(* ------------------------------------------------------------------ *)
(* checker: Atomicity.check_tagged on a large synthetic history *)

let synthetic_history m =
  (* a sequentially consistent interleaving with random overlap — the
     same construction as the checker cross-validation tests *)
  let rng = Simnet.Rng.create 7 in
  let time = ref 0.0 in
  let last_write = ref None in
  let zc = ref 0 in
  List.init m (fun op ->
      let start = !time +. Simnet.Rng.float rng 1.0 in
      let finish = start +. Simnet.Rng.float rng 1.0 in
      time := finish;
      let mk kind tag value : Protocol.History.record =
        { Protocol.History.op;
          client = op mod 8;
          kind;
          invoked_at = start;
          responded_at = Some finish;
          tag = Some tag;
          value = Some (Bytes.of_string value)
        }
      in
      if Simnet.Rng.bool rng then begin
        incr zc;
        let tag = Protocol.Tag.make ~z:!zc ~w:(100 + op) in
        let value = Printf.sprintf "v%d" op in
        last_write := Some (tag, value);
        mk Protocol.History.Write tag value
      end
      else
        match !last_write with
        | None -> mk Protocol.History.Read Protocol.Tag.initial ""
        | Some (tag, value) -> mk Protocol.History.Read tag value)

let checker_point (opts : Bench.opts) =
  let m = if opts.smoke then 2_000 else 10_000 in
  let records = synthetic_history m in
  let min_elapsed = if opts.smoke then 0.05 else 0.5 in
  let seconds =
    measure ~min_elapsed (fun () ->
        match Protocol.Atomicity.check_tagged records with
        | Ok () -> ()
        | Error _ -> failwith "sim bench: synthetic history rejected")
  in
  probe_rows ~probe:"checker" ~size:m ~seconds ()

(* ------------------------------------------------------------------ *)
(* retained: state kept per completed operation *)

(* Words reachable from one deployment after a full major GC, once
   [ops_per_client] back-to-back operations per client have completed:
   n=10, f=2, 4 writers and 4 readers with think time 1, 64 B values,
   the reliable channel under 20% loss on every link. *)
let retained_words ~ops_per_client =
  let clients = 4 and len = 64 and seed = 1 in
  let engine =
    Engine.create ~seed
      ~transport:(`Reliable Simnet.Channel.default)
      ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  Engine.set_loss engine 0.2;
  let d =
    Soda.Deployment.deploy ~engine
      ~params:(Protocol.Params.make ~n:10 ~f:2 ())
      ~initial_value:(Harness.Workload.value ~len ~seed ~index:999_983)
      ~value_len:len ~num_writers:clients ~num_readers:clients ()
  in
  let rec writer w i () =
    if i < ops_per_client then
      Soda.Deployment.write d ~writer:w ~at:(Engine.now engine +. 1.0)
        ~on_done:(writer w (i + 1))
        (Harness.Workload.value ~len ~seed ~index:((w * ops_per_client) + i))
  in
  let rec reader r i () =
    if i < ops_per_client then
      Soda.Deployment.read d ~reader:r ~at:(Engine.now engine +. 1.0)
        ~on_done:(fun _ -> reader r (i + 1) ())
        ()
  in
  for c = 0 to clients - 1 do
    writer c 0 ();
    reader c 0 ()
  done;
  Engine.run engine;
  let ops = 2 * clients * ops_per_client in
  let completed =
    List.length
      (List.filter
         (fun r -> Option.is_some r.Protocol.History.responded_at)
         (Protocol.History.records (Soda.Deployment.history d)))
  in
  if completed <> ops then failwith "sim bench: retained run left operations open";
  Gc.full_major ();
  (ops, Obj.reachable_words (Obj.repr d))

(* The slope between two run lengths: what each further operation adds
   to the state, with the fixed cost of the deployment cancelled. *)
let retained_point (opts : Bench.opts) =
  let short, long = if opts.smoke then (8, 32) else (32, 128) in
  let ops1, words1 = retained_words ~ops_per_client:short in
  let ops2, words2 = retained_words ~ops_per_client:long in
  [ Bench.row ~better:Lower "retained" "retained_words_per_op" "words/op"
      (float_of_int (words2 - words1) /. float_of_int (ops2 - ops1))
  ]

(* ------------------------------------------------------------------ *)

let run opts =
  Bench.emit opts ~bench:"sim"
    (mesh_point opts ~probe:"mesh" ()
    @ mesh_point opts
        ~transport:(`Reliable Simnet.Channel.default)
        ~probe:"mesh-reliable" ()
    @ soak_point opts
    @ checker_point opts
    @ retained_point opts)
