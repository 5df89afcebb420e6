(* Sharded-keyspace throughput and message economics, reported as JSON
   (Bench.emit). Invoked as

     dune exec bench/main.exe -- sharded            # full: 10_000 keys
     dune exec bench/main.exe -- sharded --smoke    # CI: 500 keys

   One mixed write/read workload over every key runs three ways on the
   paper's 4+2 code over 12 servers in 3 failure domains:

     keyspace-batched    shared server plane, coalesced cross-key gossip
     keyspace-broadcast  shared plane, per-entry broadcast gossip
     independent         the pre-keyspace composition: one full
                         deployment (own n servers, own clients) per key

   All three run on the raw transport with the same delay model and
   seed, so every count is deterministic: msgs_per_op drift beyond the
   bench_diff threshold is a protocol change, not machine noise. The
   headline the committed BENCH_sharded.json gates is keyspace-batched
   beating independent on msgs/op while packing more logical payload
   units into each frame (units_per_msg > 1). Any case that loses
   liveness or per-key atomicity makes the experiment exit nonzero.

   keyspace-batched also reports live_words_per_key, the memory one
   materialised key costs before any operation touches it; the baseline
   gates it so per-key state cannot quietly grow back. *)

module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

type case = {
  name : string;
  run : Workload.sharded -> Runner.sharded_result
}

let cases ~placement ~params =
  [ { name = "keyspace-batched";
      run = Runner.run_sharded ~plane:Soda.Config.batched_plane ~placement
    };
    { name = "keyspace-broadcast"; run = Runner.run_sharded ~placement };
    { name = "independent";
      run = Runner.run_sharded_independent ~params
    }
  ]

(* msgs_per_op is the one gated column: a per-operation count, so the
   smoke run matches the full baseline. The totals scale with [keys]. *)
let rows (name, (r : Runner.sharded_result)) =
  let count = Bench.count name in
  [ Bench.flag name "ok" (r.Runner.s_complete && r.Runner.s_atomic);
    count "ops" "ops" r.Runner.s_ops;
    count "msgs" "msgs" r.Runner.s_messages_sent;
    count "data" "msgs" r.Runner.s_messages_data;
    count "meta" "msgs" r.Runner.s_messages_meta;
    count "payload_units" "units" r.Runner.s_payload_units;
    Bench.row ~better:Lower name "msgs_per_op" "msgs/op"
      (Metrics.sharded_msgs_per_op r);
    Bench.row name "units_per_msg" "units/msg"
      (Metrics.sharded_units_per_msg r);
    Bench.row name "ops_per_sim_ktime" "ops/ktime"
      (1000.0 *. float_of_int r.Runner.s_ops
      /. Float.max 1e-9 r.Runner.s_final_time);
    count "events" "events" r.Runner.s_events;
    Bench.row name "final_time" "time" r.Runner.s_final_time
  ]

(* Live heap words per key: the growth of the heap's live words across
   materialising every key of a fresh batched-plane keyspace, with a
   full major collection on each side. It counts what the keyspace keeps
   (instances, server automata, their tables, plane entries) and nothing
   a run allocates. Allocation is deterministic, so the figure is a count
   compared raw, and per key, so the smoke run matches the full
   baseline. *)
let live_words_per_key ~placement ~keys =
  let engine =
    Simnet.Engine.create ~seed:1 ~delay:(Simnet.Delay.constant 1.0) ()
  in
  let ks =
    Soda.Keyspace.create ~engine ~placement ~plane:Soda.Config.batched_plane
      ~value_len:64 ~num_writers:4 ~num_readers:4 ()
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for key = 0 to keys - 1 do
    Soda.Keyspace.materialize ks ~key
  done;
  let after = live () in
  ignore (Sys.opaque_identity ks : Soda.Keyspace.t);
  float_of_int (after - before) /. float_of_int keys

let run (opts : Bench.opts) =
  let keys = if opts.smoke then 500 else 10_000 in
  let params = Soda.Placement.preset_params `P4_2 in
  let topology = Soda.Topology.make ~servers:12 ~domains:3 () in
  let placement =
    Soda.Placement.create ~topology ~params
      ~policy:Soda.Placement.Consistent_hash ()
  in
  assert (Soda.Placement.domain_safe placement);
  let wl =
    Workload.sharded_mixed ~keys ~value_len:64 ~seed:1 ~num_writers:4
      ~num_readers:4 ~round_gap:10.0 ()
  in
  let footprint =
    Bench.row ~better:Lower "keyspace-batched" "live_words_per_key" "words/key"
      (live_words_per_key ~placement ~keys)
  in
  let results =
    List.map
      (fun c -> (c.name, c.run wl))
      (cases ~placement ~params)
  in
  Bench.emit opts ~bench:"sharded"
    (Bench.count "workload" "keys" "keys" keys
     :: Bench.count "workload" "servers" "servers"
          (Soda.Topology.servers topology)
     :: Bench.count "workload" "domains" "domains"
          (Soda.Topology.num_domains topology)
     :: List.concat_map
          (fun ((name, _) as result) ->
            rows result
            @ if name = "keyspace-batched" then [ footprint ] else [])
          results);
  let failures =
    List.filter
      (fun (_, (r : Runner.sharded_result)) ->
        not (r.Runner.s_complete && r.Runner.s_atomic))
      results
  in
  List.iter
    (fun (name, (r : Runner.sharded_result)) ->
      Printf.eprintf "sharded: FAIL %s — complete=%b atomic=%b\n" name
        r.Runner.s_complete r.Runner.s_atomic)
    failures;
  if not (List.is_empty failures) then exit 1
