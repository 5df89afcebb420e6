(* What the JSON experiments (codec, sim, chaos, sharded, overhead)
   share: the options main.ml parses, one row record, the only JSON
   writer and the one timing loop.

   Every experiment writes the same shape, which tools/bench_diff reads
   without knowing which experiment wrote it:

     {"bench":KIND,"smoke":BOOL,"results":[
     {"key":K,"metric":M,"value":V,"unit":U,"better":B},
     ...
     ]}

   A row is one number: [key] names the thing measured (a codec/op/size,
   a probe, an algorithm, a case), [metric] the column. [better] is the
   direction bench_diff gates the row in, "higher" or "lower"; "none"
   marks an informational column it never compares. Whether a gated row
   is scaled for host speed follows from [unit]: a wall-clock rate
   ("MB/s", "events/s") moves with the machine, a count ("msgs/op")
   does not. *)

type opts = {
  smoke : bool;  (* --smoke: a CI-sized quota *)
  out : string option  (* --out FILE: also write the JSON to FILE *)
}

type better = Higher | Lower | Info

type row = {
  key : string;
  metric : string;
  value : float;
  unit : string;
  better : better;
}

let row ?(better = Info) key metric unit value =
  { key; metric; value; unit; better }

let count key metric unit n = row key metric unit (float_of_int n)
let flag key metric b = row key metric "bool" (if b then 1.0 else 0.0)

let better_name = function
  | Higher -> "higher"
  | Lower -> "lower"
  | Info -> "none"

(* three decimals, no trailing zeros: counts print as integers *)
let number v = Printf.sprintf "%.15g" (Float.round (v *. 1000.0) /. 1000.0)

(* Print the bench's JSON on stdout (unless [~echo:false]) and write it
   to [opts.out] when given. *)
let emit ?(echo = true) opts ~bench rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"bench\":%S,\"smoke\":%b,\"results\":[" bench opts.smoke;
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "%s\n{\"key\":%S,\"metric\":%S,\"value\":%s,\"unit\":%S,\"better\":%S}"
        (if i = 0 then "" else ",")
        r.key r.metric (number r.value) r.unit (better_name r.better))
    rows;
  Buffer.add_string b "\n]}\n";
  let json = Buffer.contents b in
  if echo then print_string json;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json))
    opts.out

(* Seconds per call of [f]. One window repeats [f] until [min_elapsed]
   seconds and [min_iters] calls have passed; of [trials] windows the
   fastest wins. A background load spike inflates a window and never
   deflates it, so best-of is the low-variance estimator; one trial is
   the plain average over the window. A first call warms tables and
   caches outside the clock. *)
let time_per_call ?(trials = 3) ~min_elapsed ~min_iters f =
  ignore (f ());
  let window () =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let elapsed = ref 0.0 in
    while !iters < min_iters || !elapsed < min_elapsed do
      ignore (f ());
      incr iters;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed /. float_of_int !iters
  in
  let best = ref (window ()) in
  for _ = 2 to trials do
    best := Float.min !best (window ())
  done;
  !best
