(* Benchmark driver: regenerates every table/figure of the paper's
   evaluation (see DESIGN.md for the index). Run with no arguments for
   the full suite, or name experiments:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1 latency  # a subset
*)

(* [json] experiments write their rows through Bench.emit and honour
   --out; the rest print tables *)
type experiment = {
  name : string;
  run : Bench.opts -> unit;
  json : bool;
  doc : string;
}

let table name run doc = { name; run = (fun _ -> run ()); json = false; doc }
let json name run doc = { name; run; json = true; doc }

let experiments =
  [ table "table1" Experiments.table1
      "Table I: ABD vs CASGC vs SODA at f = fmax";
    table "table1-concurrent" Experiments.table1_concurrent
      "Table I workloads with overlapping clients";
    table "storage" Experiments.storage "Thm 5.3: SODA storage vs f";
    table "write-cost" Experiments.write_cost "Thm 5.4: write cost vs f";
    table "read-cost" Experiments.read_cost "Thm 5.6: read cost vs delta_w";
    table "latency" Experiments.latency "Thm 5.7: latency vs Delta";
    table "err-storage" Experiments.err_storage
      "Thm 6.3(i): SODAerr storage vs e";
    table "err-read" Experiments.err_read
      "Thm 6.3(ii,iii): SODAerr costs vs e";
    table "crossover" Experiments.crossover "CASGC/SODA trade-off vs delta";
    table "repair" Experiments.repair
      "repair extension: restore a crashed server";
    table "replication" Experiments.replication_baselines
      "ABD vs LDR vs SODA cost profile";
    table "throughput" Experiments.throughput "closed-loop throughput vs n";
    table "latency-dist" Experiments.latency_dist
      "latency percentiles under random delays";
    json "overhead" Experiments.overhead
      "metadata message overhead per op (JSON with --out)";
    table "ablation-md" Experiments.ablation_md "chained vs direct dispersal";
    table "ablation-gossip" Experiments.ablation_gossip
      "READ-DISPERSE gossip vs none";
    json "codec" Codec_bench.run "codec kernel throughput, JSON (see --smoke)";
    json "sim" Sim_bench.run
      "simulator & checker events/sec, JSON (see --smoke)";
    json "chaos" Chaos_bench.run
      "chaos matrix: SODA over lossy/partitioned links, JSON (see --smoke)";
    json "sharded" Sharded_bench.run
      "multi-key keyspace vs independent deployments, JSON (see --smoke)"
  ]

let usage () =
  print_endline
    "usage: main.exe [--csv DIR] [--smoke] [--out FILE] [experiment...]";
  print_endline "experiments:";
  List.iter (fun e -> Printf.printf "  %-16s %s\n" e.name e.doc) experiments

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  (* --csv DIR: additionally write every table as CSV into DIR;
     --smoke: shrink the JSON experiments to a CI-sized quota;
     --out FILE: write the JSON experiment's output to FILE as well *)
  let rec parse opts names = function
    | "--csv" :: dir :: rest ->
      Harness.Report.set_csv_dir (Some dir);
      parse opts names rest
    | "--smoke" :: rest -> parse { opts with Bench.smoke = true } names rest
    | "--out" :: path :: rest ->
      parse { opts with Bench.out = Some path } names rest
    | x :: rest -> parse opts (x :: names) rest
    | [] -> (opts, List.rev names)
  in
  let opts, names = parse { Bench.smoke = false; out = None } [] args in
  let help n = String.equal n "--help" || String.equal n "-h" in
  if List.exists help names then usage ()
  else begin
    let requested =
      match names with
      | [] -> experiments
      | _ ->
        List.map
          (fun name ->
            let named e = String.equal e.name name in
            match List.find_opt named experiments with
            | Some e -> e
            | None ->
              Printf.printf "unknown experiment %S\n" name;
              usage ();
              exit 1)
          names
    in
    (* one FILE holds one experiment's JSON: a second would overwrite it *)
    let json_names =
      List.filter_map (fun e -> if e.json then Some e.name else None) requested
    in
    if Option.is_some opts.Bench.out && List.length json_names > 1 then begin
      Printf.eprintf "main: --out takes one JSON experiment, got %s\n"
        (String.concat ", " json_names);
      exit 2
    end;
    List.iter (fun e -> e.run opts) requested
  end
