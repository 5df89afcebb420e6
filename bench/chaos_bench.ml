(* The chaos matrix as a benchmark / CI gate, reported as JSON
   (Bench.emit, one key per scenario/seed). Invoked as

     dune exec bench/main.exe -- chaos            # full: 3 seeds/cell
     dune exec bench/main.exe -- chaos --smoke    # CI: 1 seed/cell

   Every cell of Harness.Chaos.matrix (loss x partitions x crashes)
   runs SODA over the reliable-channel transport and must come back
   live, atomic, trace-clean, and with zero abandoned sends. Any
   failing (cell, seed) pair makes the whole experiment exit nonzero
   and prints the replay command that reproduces it. *)

module Chaos = Harness.Chaos
module Metrics = Harness.Metrics

(* nearest-rank percentile on a sorted copy; 0.0 for an empty list *)
let percentile p durations =
  match List.sort Float.compare durations with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    List.nth sorted (max 0 (min (n - 1) rank))

let heal_rows key (o : Chaos.outcome) =
  if not o.scenario.Chaos.healing then []
  else
    let hs = o.heal_stats and hc = Metrics.heal_counts o.probe in
    [ Bench.flag key "scrub_clean" o.Chaos.scrub_clean;
      Bench.flag key "all_live" o.Chaos.all_live;
      Bench.count key "heartbeats" "msgs" hs.Soda.Config.heartbeats_sent;
      Bench.count key "suspicions" "count" hc.Metrics.suspicions;
      Bench.count key "scrub_sweeps" "count" hs.Soda.Config.scrub_sweeps;
      Bench.count key "scrub_hits" "count" hc.Metrics.scrub_hits;
      Bench.count key "auto_repairs" "count" hc.Metrics.auto_repairs;
      Bench.count key "scrub_repairs" "count" hc.Metrics.scrub_repairs;
      Bench.row key "mttd_p50" "time" (percentile 0.5 o.Chaos.heal_mttd);
      Bench.row key "mttr_p50" "time" (percentile 0.5 o.Chaos.heal_mttr);
      Bench.row key "mttr_p95" "time" (percentile 0.95 o.Chaos.heal_mttr);
      Bench.row key "mttr_max" "time" (percentile 1.0 o.Chaos.heal_mttr)
    ]

(* every counter is informational: the gate is [Chaos.ok] below *)
let rows (o : Chaos.outcome) =
  let key = Printf.sprintf "%s/%d" o.scenario.Chaos.name o.seed in
  let msgs metric n = Bench.count key metric "msgs" n in
  let events metric n = Bench.count key metric "events" n in
  [ Bench.flag key "ok" (Chaos.ok o);
    Bench.count key "ops" "ops" o.ops;
    msgs "sent" o.sent;
    msgs "delivered" o.delivered;
    msgs "dropped" o.dropped;
    msgs "lost" o.lost;
    msgs "retransmissions" o.retransmissions;
    msgs "duplicates_suppressed" o.duplicates_suppressed;
    msgs "abandoned" o.abandoned;
    msgs "data" o.data;
    msgs "meta" o.meta;
    msgs "acks" o.acks;
    events "crashes" o.crash_events;
    events "partitions" o.partition_events;
    events "bitrots" o.bitrot_events
  ]
  @ heal_rows key o
  @ [ Bench.row key "final_time" "time" o.final_time ]

let run (opts : Bench.opts) =
  let seeds = if opts.smoke then [ 1 ] else [ 1; 2; 3 ] in
  let outcomes =
    List.concat_map
      (fun scenario ->
        List.map (fun seed -> Chaos.run ~trace:true scenario ~seed) seeds)
      Chaos.matrix
  in
  Bench.emit opts ~bench:"chaos" (List.concat_map rows outcomes);
  let failures = List.filter (fun o -> not (Chaos.ok o)) outcomes in
  List.iter
    (fun (o : Chaos.outcome) ->
      Printf.eprintf
        "chaos: FAIL %s seed=%d — replay with: dune exec bin/replay.exe -- %s \
         %d\n"
        o.scenario.Chaos.name o.seed o.scenario.Chaos.name o.seed)
    failures;
  if not (List.is_empty failures) then exit 1
