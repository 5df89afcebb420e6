(* The end-to-end benchmark: one workload per invocation, measured for a
   fixed wall-clock budget, with its outputs checked.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe anomalies

   The workload (kv-10k, soak-lossy or err-decode; see workloads.ml) is
   set up, run and checked again and again, each repetition on a seed
   derived from [--seed], at least the workload's [min_reps] times and
   until [--seconds] have passed. A full major collection before each
   repetition frees the previous engine before the next is built.

   With [--trace 0] it prints the end-to-end metrics. The wall-clock
   ones are medians over the repetitions, scaled to a reference host by
   a kernel timed before each repetition (host.ml). The simulated-time
   and count ones pool the executions of the first [min_reps]
   repetitions, so the seed alone fixes them. With [--trace 1] every
   repetition is a plain run
   followed by a traced run of the same seed, and it prints the
   per-layer metrics (medians over repetitions). Every metric goes on
   its own line with its unit; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}. Any failed check makes
   the exit code 1.

   [anomalies] runs the two traced experiments behind ../ANOMALIES.md. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let ratio a b = if b > 0.0 then a /. b else 0.0

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-42s %14.6g %-9s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

let latency name (a : float array) p =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  metric name "delta" (Rep.percentile a p)
    ~note:(Printf.sprintf "(n=%d, %d beyond)" n (n - rank))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let ops_per_s (o : Rep.outcome) =
  ratio (float_of_int o.Rep.completed) (o.Rep.run_s +. o.Rep.check_s)

(* The wall-clock metrics are scaled to the reference host by the
   run's [Host.factor]; the notes give the raw medians. *)
let end_to_end ~min_reps ~setups ~factor (os : Rep.outcome list) =
  let o = Rep.pool (List.filteri (fun i _ -> i < min_reps) os) in
  let ops = Rep.median (List.map ops_per_s os) in
  let setup = Rep.median setups in
  let scaled raw unit_ =
    Printf.sprintf "(raw %.6g %s, host factor %.4f)" raw unit_ factor
  in
  [ metric "ops_per_s" "ops/s" (ops *. factor) ~note:(scaled ops "ops/s");
    metric "setup_s" "s" (setup /. factor) ~note:(scaled setup "s");
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
    latency "write_lat_p50" o.Rep.write_lat 0.5;
    latency "write_lat_p99" o.Rep.write_lat 0.99;
    latency "read_lat_p50" o.Rep.read_lat 0.5;
    latency "read_lat_p99" o.Rep.read_lat 0.99;
    metric "msgs_per_op" "msgs/op" (Rep.msgs_per_op o);
    metric "data_units_per_op" "units/op"
      (ratio o.Rep.data_units (float_of_int o.Rep.completed));
    metric "storage_units" "units" o.Rep.storage_units;
    metric "ops_completed_frac" "ratio"
      (ratio (float_of_int o.Rep.completed) (float_of_int o.Rep.scheduled))
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one (plain, traced) pair *)

let per_layer (codec : Codec_probe.t) ((u : Rep.outcome), (t : Rep.outcome)) =
  let tr =
    match t.Rep.trace with Some tr -> tr | None -> invalid_arg "per_layer"
  in
  let steps =
    List.concat_map
      (fun (name, self_s, count) ->
        [ metric (name ^ ".self_s") "s" self_s;
          metric (name ^ ".count") "count" (float_of_int count) ])
      (Tracer.rows tr ~other_name:Workloads.other_kind)
  in
  let per_op x = Rep.per_op u x in
  steps
  @ [ metric "erasure.mds.encode_us" "us" codec.Codec_probe.encode_us;
      metric "erasure.mds.decode_us" "us" codec.Codec_probe.decode_us;
      metric "erasure.mds.est_share" "ratio"
        (ratio
           (1e-6
           *. ((float_of_int u.Rep.writes *. codec.Codec_probe.encode_us)
              +. (float_of_int u.Rep.reads *. codec.Codec_probe.decode_us)))
           u.Rep.run_s);
      metric "soda.keyspace.materialize_s" "s" t.Rep.materialize_s;
      metric "soda.keyspace.heap_bytes_per_key" "B" t.Rep.heap_bytes_per_key;
      metric "soda.keyspace.units_per_msg" "ratio"
        (ratio (float_of_int u.Rep.payload_units) (float_of_int u.Rep.sent));
      metric "simnet.engine.events_per_op" "events/op" (per_op u.Rep.events);
      metric "simnet.event_queue.peak_pending" "count"
        (float_of_int tr.Tracer.peak_pending);
      metric "simnet.channel.retransmits_per_op" "msgs/op"
        (per_op u.Rep.retransmits);
      metric "simnet.channel.acks_per_op" "msgs/op" (per_op u.Rep.acks);
      metric "simnet.channel.lost_per_op" "msgs/op" (per_op u.Rep.lost);
      metric "simnet.channel.abandoned" "count" (float_of_int u.Rep.abandoned);
      metric "protocol.atomicity.check_s" "s" u.Rep.check_s;
      metric "harness.workload.gen_s" "s" u.Rep.gen_s;
      metric "trace.overhead" "ratio" (ratio t.Rep.run_s u.Rep.run_s);
      metric "trace.coverage" "ratio"
        (ratio (Tracer.attributed_s tr) t.Rep.run_s)
    ]

(* Medians, position by position, of equally shaped metric lists. *)
let median_rows = function
  | [] -> []
  | first :: _ as rows ->
    List.mapi
      (fun i m ->
        let values = List.map (fun r -> (List.nth r i).value) rows in
        { m with value = Rep.median values })
      first

(* ------------------------------------------------------------------ *)
(* Correctness *)

(* A workload with a committed msgs/op must reproduce it at seed 1. A
   run at another seed checks it only when traced, with one extra plain
   repetition at seed 1. *)
let cross_check (w : Workloads.t) ~seed ~traced ~(first : Rep.outcome) =
  match w.Workloads.committed_msgs_per_op with
  | None -> []
  | Some want -> (
    let at_seed_1 =
      if seed = 1 then Some first
      else if traced then Some (Rep.run w ~seed:1 ~traced:false)
      else None
    in
    match at_seed_1 with
    | None -> []
    | Some o ->
      let got = Printf.sprintf "%.2f" (Rep.msgs_per_op o) in
      if String.equal got want then []
      else
        [ Printf.sprintf "seed 1: msgs_per_op %s, committed %s" got want ])

let check_pair ((u : Rep.outcome), t) =
  Rep.failures u
  @
  match t with
  | None -> []
  | Some t ->
    Rep.failures t
    @
    if Rep.same_execution u t then []
    else [ "observation: the traced run differs from the plain one" ]

(* Repetition [i] runs seed [seed + i * 1_000_003]; repetition 0 runs
   [seed] itself. *)
let rep_seed seed i = seed + (i * 1_000_003)

(* Set-up times per invocation at least, topped up with set-up-only
   repetitions when the measured ones are fewer. *)
let setup_samples = 9

let main ~(w : Workloads.t) ~seed ~seconds ~traced =
  let rep i traced =
    Gc.full_major ();
    let o = Rep.run w ~seed:(rep_seed seed i) ~traced in
    Printf.eprintf
      "%s%s: setup %.3f s, run %.3f s, check %.3f s, simulated time %.0f\n%!"
      w.Workloads.name
      (if traced then " traced" else "")
      o.Rep.setup_s o.Rep.run_s o.Rep.check_s o.Rep.sim_time;
    o
  in
  let start = Clock.now () in
  (* untraced, at least [min_reps] repetitions, so the pooled execution
     metrics depend on the seed alone; then more until [seconds] have
     passed *)
  let min_reps = if traced then 1 else w.Workloads.min_reps in
  let host = ref [] in
  let rec loop i acc =
    if i >= min_reps && Clock.now () -. start >= seconds then
      List.rev acc
    else begin
      if not traced then begin
        let h = Host.sample () in
        Printf.eprintf "host kernel %.4f s\n%!" h;
        host := h :: !host
      end;
      let plain = rep i false in
      let run = (plain, if traced then Some (rep i true) else None) in
      loop (i + 1) (run :: acc)
    end
  in
  let runs = loop 0 [] in
  let plain = List.map fst runs in
  let first = List.hd plain in
  let problems =
    List.concat_map check_pair runs @ cross_check w ~seed ~traced ~first
  in
  let metrics, problems =
    if not traced then begin
      let reps = List.length plain in
      let extra =
        List.init
          (Int.max 0 (setup_samples - reps))
          (fun j ->
            Gc.full_major ();
            Rep.setup_only w ~seed:(rep_seed seed (reps + j)))
      in
      let setups = List.map (fun (o : Rep.outcome) -> o.Rep.setup_s) plain in
      let min_reps = w.Workloads.min_reps in
      let factor = Host.factor !host in
      (end_to_end ~min_reps ~setups:(setups @ extra) ~factor plain, problems)
    end
    else
      match
        Codec_probe.run ~code:first.Rep.code ~value_len:first.Rep.value_len
          ~decode_threshold:first.Rep.decode_threshold ~seed
      with
      | Error e -> ([], problems @ [ e ])
      | Ok codec ->
        let pairs =
          List.filter_map (fun (u, t) -> Option.map (fun t -> (u, t)) t) runs
        in
        (median_rows (List.map (per_layer codec) pairs), problems)
  in
  List.iter
    (fun p -> Printf.eprintf "%s: FAIL %s\n" w.Workloads.name p)
    problems;
  let sum f = List.fold_left (fun a (o : Rep.outcome) -> a + f o) 0 plain in
  let attempted = sum (fun o -> o.Rep.scheduled) in
  let failed = sum (fun o -> o.Rep.scheduled - o.Rep.completed) in
  Printf.printf "# %s seed=%d repetitions=%d trace=%b\n" w.Workloads.name seed
    (List.length runs) traced;
  let correct = List.is_empty problems in
  emit ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and anomalies = ref false in
  let spec =
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME kv-10k | soak-lossy | err-decode" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall-clock budget (default 10)");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end (0) or per-layer (1) metrics" )
    ]
  in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     main.exe anomalies"
  in
  Arg.parse spec
    (fun a ->
      if String.equal a "anomalies" then anomalies := true
      else raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !anomalies then Anomalies.run ()
  else
    match Workloads.find !workload with
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
      exit 2
    | Some w -> main ~w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
