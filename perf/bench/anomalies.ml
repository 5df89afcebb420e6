(* The two traced experiments behind ../ANOMALIES.md, run with
   [main.exe anomalies]. Both re-create a committed sim-bench probe
   (bench/sim_bench.ml) on its own engine and drive it through the
   step tracer:

   - soda-soak: SODA at n=25, f=12, 4+4 clients, 8 operations each,
     exponential delays, 12 staggered crashes — on the raw transport (as
     committed) and again under the reliable channel;
   - mesh / mesh-reliable: 64 processes bouncing 1,000 messages for 500
     hops each, with no protocol, on either transport. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module Workload = Harness.Workload
module Deployment = Soda.Deployment

(* Sum of several traces of one workload (the soak alone is too short
   to time once). *)
let add (a : Tracer.t) (b : Tracer.t) =
  { a with
    Tracer.self_s = Array.map2 ( +. ) a.Tracer.self_s b.Tracer.self_s;
    count = Array.map2 ( + ) a.Tracer.count b.Tracer.count;
    peak_pending = Int.max a.Tracer.peak_pending b.Tracer.peak_pending;
    wall_s = a.Tracer.wall_s +. b.Tracer.wall_s
  }

(* [n] runs of [f]: traces added up, per-run engine counters summed. *)
let traced_repeats n f =
  let rec go (tr, c) i =
    if i >= n then (tr, c)
    else
      let tr', c' = f () in
      go (add tr tr', Array.map2 ( + ) c c') (i + 1)
  in
  go (f ()) 1

let report ~title ~ops (tr : Tracer.t) =
  let steps = Tracer.steps tr in
  let total = Tracer.attributed_s tr in
  Printf.printf "%s: %d steps, %.1f steps/op, %.3f s traced\n" title steps
    (float_of_int steps /. float_of_int ops)
    total;
  Printf.printf "  %-30s %10s %8s %8s %10s\n" "kind" "count" "steps%" "time%"
    "us/step";
  List.iter
    (fun (name, self_s, count) ->
      if count > 0 then
        Printf.printf "  %-30s %10d %7.1f%% %7.1f%% %10.3f\n" name count
          (100.0 *. float_of_int count /. float_of_int steps)
          (100.0 *. self_s /. total)
          (1e6 *. self_s /. float_of_int count))
    (Tracer.rows tr ~other_name:Workloads.other_kind)

(* ------------------------------------------------------------------ *)

let soak_ops = 4 * 2 * 8

let soak ~transport () =
  let params = Params.make ~n:25 ~f:12 () in
  let w =
    Workload.concurrent ~params ~value_len:256 ~seed:1 ~num_writers:4
      ~num_readers:4 ~ops_per_client:8
      ~delay:(Delay.exponential ~mean:1.0 ~cap:10.0) ()
  in
  let engine =
    Engine.create ~seed:1 ~transport ~delay:w.Workload.delay
      ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
      ()
  in
  let d =
    Deployment.deploy ~engine ~params
      ~initial_value:(Workload.value ~len:256 ~seed:1 ~index:999_983)
      ~value_len:256 ~num_writers:4 ~num_readers:4 ()
  in
  List.iter
    (fun i ->
      Deployment.crash_server d ~coordinate:(2 * i) ~at:(float_of_int (i * 80)))
    (List.init 12 Fun.id);
  List.iter
    (function
      | Workload.Write { writer; at; value } ->
        Deployment.write d ~writer ~at value
      | Workload.Read { reader; at } -> Deployment.read d ~reader ~at ())
    w.Workload.ops;
  let tr =
    Tracer.run ~kinds:Workloads.kinds ~classify:Workloads.classify engine
  in
  ( tr,
    [| Engine.messages_dropped engine;
       Engine.retransmissions engine;
       Engine.acks_sent engine;
       Engine.sends_abandoned engine
    |] )

(* ------------------------------------------------------------------ *)

type hop = Hop of int

let mesh_deliveries = 1_000 * 500

let mesh ~transport () =
  let procs = 64 in
  let engine =
    Engine.create ~seed:42 ~transport ~delay:(Delay.uniform ~lo:0.1 ~hi:2.0) ()
  in
  let pids =
    Array.init procs (fun i -> Engine.reserve engine ~name:(string_of_int i))
  in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun ctx ~src:_ (Hop i) ->
          if i > 0 then
            let dst = pids.(Simnet.Rng.int (Engine.rng_ctx ctx) procs) in
            Engine.send ctx ~dst (Hop (i - 1))))
    pids;
  for m = 0 to 999 do
    Engine.inject engine ~at:0.0 pids.(m mod procs) (fun ctx ->
        Engine.send ctx ~dst:pids.((m + 1) mod procs) (Hop 500))
  done;
  let tr = Tracer.run ~kinds:[| "mesh.hop" |] ~classify:(fun _ -> 0) engine in
  (tr, Engine.acks_sent engine, Engine.retransmissions engine)

let run () =
  List.iter
    (fun (title, transport, runs) ->
      let tr, c = traced_repeats runs (soak ~transport) in
      report ~title ~ops:(runs * soak_ops) tr;
      Printf.printf
        "  dropped at crashed servers %d, retransmissions %d, acks sent %d, \
         abandoned %d\n"
        c.(0) c.(1) c.(2) c.(3))
    [ ("soda-soak n=25 raw", `Raw, 20);
      ("soda-soak n=25 reliable", `Reliable Simnet.Channel.default, 2) ];
  List.iter
    (fun (title, transport) ->
      let tr, acks, rexmits = mesh ~transport () in
      report ~title ~ops:mesh_deliveries tr;
      Printf.printf "  acks sent %d, retransmissions %d, %.0f deliveries/s\n"
        acks rexmits
        (float_of_int mesh_deliveries /. Tracer.attributed_s tr))
    [ ("mesh", `Raw); ("mesh-reliable", `Reliable Simnet.Channel.default) ]
