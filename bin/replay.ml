(* Seed replay: re-run one chaos-matrix cell at a given seed with the
   event trace enabled and pretty-print everything the simulation saw,
   so a failing (scenario, seed) pair reported by the QCheck matrix or
   the chaos bench can be replayed deterministically and read line by
   line.

     dune exec bin/replay.exe -- loss20+part+crash 17
     dune exec bin/replay.exe -- --quiet loss05 3      # verdict only

   The event log goes to stdout (one line per network event), then the
   payload view of every delivery and ack, then (healing cells) the
   healing plane's probe events, followed by the outcome block:
   counters, the atomicity verdict, and the lossy-model trace-check
   verdict. Exit status is 0 iff the run is OK (live, atomic,
   trace-clean, healing-causal, no abandoned sends). *)

module Probe = Protocol.Probe

(* One line per healing-plane probe event. Probes name servers by
   coordinate, and a chaos deployment names coordinate [c] "server<c>". *)
let heal_line = function
  | Probe.Crash_injected { server; time } ->
    Some (Printf.sprintf "%.3f  server%d  CRASH injected" time server)
  | Probe.Rot_injected { server; time } ->
    Some (Printf.sprintf "%.3f  server%d  ROT injected" time server)
  | Probe.Suspected { target; by; time } ->
    Some (Printf.sprintf "%.3f  server%d  SUSPECTS server%d" time by target)
  | Probe.Auto_repair { server; time } ->
    Some (Printf.sprintf "%.3f  server%d  AUTO-REPAIR start" time server)
  | Probe.Repair_started { server; time } ->
    Some (Printf.sprintf "%.3f  server%d  REPAIR start" time server)
  | Probe.Repaired { server; time; _ } ->
    Some (Printf.sprintf "%.3f  server%d  REPAIRED" time server)
  | Probe.Rot_detected { server; time } ->
    Some
      (Printf.sprintf "%.3f  server%d  ROT detected (checksum mismatch)" time
         server)
  | Probe.Scrub_repaired { server; time; _ } ->
    Some (Printf.sprintf "%.3f  server%d  SCRUB-REPAIRED" time server)
  | Probe.Registered _ | Probe.Unregistered _ | Probe.Relayed _
  | Probe.Stored _ | Probe.Gc _ ->
    None

let usage () =
  prerr_endline "usage: replay.exe [--quiet] SCENARIO SEED";
  prerr_endline "scenarios:";
  List.iter
    (fun s -> Printf.eprintf "  %s\n" s.Harness.Chaos.name)
    Harness.Chaos.matrix;
  exit 2

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let quiet, args =
    match args with
    | "--quiet" :: rest -> (true, rest)
    | _ -> (false, args)
  in
  let scenario_name, seed =
    match args with
    | [ name; seed ] -> (
      match int_of_string_opt seed with
      | Some s -> (name, s)
      | None ->
        Printf.eprintf "replay: seed %S is not an integer\n" seed;
        usage ())
    | _ -> usage ()
  in
  let scenario =
    match Harness.Chaos.find scenario_name with
    | Some s -> s
    | None ->
      Printf.eprintf "replay: unknown scenario %S\n" scenario_name;
      usage ()
  in
  let outcome = Harness.Chaos.run ~trace:true scenario ~seed in
  if not quiet then begin
    List.iter
      (fun e ->
        Format.printf "%a@." (Simnet.Engine.pp_event ~name:outcome.name_of) e)
      outcome.events;
    (* payload view: protocol messages and acks rendered readably —
       coalesced gossip envelopes show entry counts and tag/rid ranges,
       acks the sequence number they acknowledge *)
    print_endline "-- deliveries --";
    List.iter print_endline outcome.message_log;
    if outcome.scenario.healing then begin
      print_endline "-- healing --";
      List.iter
        (fun e -> Option.iter print_endline (heal_line e))
        (Probe.chronological outcome.probe)
    end
  end;
  Format.printf "%a@." Harness.Chaos.pp_outcome outcome;
  exit (if Harness.Chaos.ok outcome then 0 else 1)
