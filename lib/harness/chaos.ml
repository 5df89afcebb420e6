module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Atomicity = Protocol.Atomicity

type faults =
  | No_faults
  | Crashes
  | Partitions
  | Crashes_and_partitions
  | Unrepaired_crashes
  | Bitrot
  | Partitions_and_bitrot

type scenario = {
  name : string;
  loss : float;
  faults : faults;
  batched : bool;
  healing : bool
}

let cell name loss faults =
  { name; loss; faults; batched = false; healing = false }

let matrix =
  List.concat_map
    (fun loss ->
      let name =
        Printf.sprintf "loss%02d" (int_of_float ((loss *. 100.) +. 0.5))
      in
      [ cell name loss No_faults;
        cell (name ^ "+crash") loss Crashes;
        cell (name ^ "+part") loss Partitions;
        cell (name ^ "+part+crash") loss Crashes_and_partitions
      ])
    [ 0.05; 0.2; 0.4 ]
  @ [ (* the batched message plane (coalesced gossip, relay batching,
         staggered metadata) must survive the same adversary as the
         broadcast plane *)
      { (cell "batched20+part" 0.2 Partitions) with batched = true };
      (* self-healing plane cells: the scrubber must find and repair
         silent bit-rot; the failure detector must bring back crashes
         that no nemesis Repair ever restores; and both must hold up
         when loss and partitions delay every heartbeat and fragment *)
      { (cell "bitrot+scrub" 0.05 Bitrot) with healing = true };
      { (cell "crash-noheal" 0.05 Unrepaired_crashes) with healing = true };
      { (cell "bitrot+loss20+part" 0.2 Partitions_and_bitrot) with
        healing = true
      }
    ]

let find name = List.find_opt (fun s -> s.name = name) matrix

type outcome = {
  scenario : scenario;
  seed : int;
  complete : bool;
  atomic : (unit, string) result;
  trace_ok : (unit, string) result;
  heal_ok : (unit, string) result;
  ops : int;
  sent : int;
  delivered : int;
  dropped : int;
  lost : int;
  retransmissions : int;
  duplicates_suppressed : int;
  abandoned : int;
  data : int;
  meta : int;
  acks : int;
  crash_events : int;
  partition_events : int;
  bitrot_events : int;
  scrub_clean : bool;
  all_live : bool;
  heal_stats : Soda.Config.heal_stats;
  probe : Protocol.Probe.t;
  heal_mttd : float list;
  heal_mttr : float list;
  final_time : float;
  events : Engine.event list;
  message_log : string list;
  name_of : int -> string
}

let ok o =
  o.complete && Result.is_ok o.atomic && Result.is_ok o.trace_ok
  && Result.is_ok o.heal_ok && o.abandoned = 0 && o.scrub_clean
  && ((not o.scenario.healing) || o.all_live)

let run ?(trace = false) scenario ~seed =
  let params = Params.make ~n:5 ~f:1 () in
  let horizon = 600.0 and value_len = 64 in
  let plane = if scenario.batched then Some Soda.Config.batched_plane else None in
  let engine =
    Engine.create ~seed ~trace ~transport:(`Reliable Simnet.Channel.default)
      ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
      ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  if scenario.loss > 0.0 then Engine.set_loss engine scenario.loss;
  (* payload-level log for replay: rendered through Soda.Messages.pp so
     coalesced envelopes stay human-diffable *)
  let msg_log = ref [] in
  if trace then begin
    let name pid = Engine.name_of engine pid in
    Engine.set_tap engine
      { Engine.tap_deliver =
          (fun ~time ~src ~dst msg ->
            msg_log :=
              Format.asprintf "%8.2f  %s -> %s  %a" time (name src) (name dst)
                Soda.Messages.pp msg
              :: !msg_log);
        Engine.tap_ack =
          (fun ~time ~src ~dst ~cumulative:_ ~seq ->
            (* acks travel against the data direction *)
            msg_log :=
              Printf.sprintf "%8.2f  %s -> %s  ack %d" time (name dst) (name src)
                seq
              :: !msg_log)
      }
  end;
  let initial_value = Workload.value ~len:value_len ~seed ~index:999 in
  let d =
    Soda.Deployment.deploy ~engine ~params ~initial_value ?plane
      ~healing:scenario.healing ~num_writers:2 ~num_readers:2 ()
  in
  (* heal causality, the heal counts and replay.exe read the probe *)
  Protocol.Probe.record (Soda.Deployment.probe d);
  (* an independent corruption stream merged over the base schedule;
     its own <= f budget caps concurrent unhealed rot, so combined with
     a partition at most two elements are unavailable at an instant —
     reads stall at worst until a write or scrub heals the rot, which
     the quiescence tail absorbs *)
  let with_rot schedule =
    let rot =
      Nemesis.generate_bitrot ~params ~seed:(seed lxor 0x2FA7) ~horizon
    in
    List.sort
      (fun a b -> Float.compare (Nemesis.time_of a) (Nemesis.time_of b))
      (schedule @ rot)
  in
  let schedule =
    match scenario.faults with
    | No_faults -> []
    | Crashes -> Nemesis.generate ~params ~seed ~horizon
    | Partitions ->
      Nemesis.generate_mixed ~params ~seed ~horizon ~partition_fraction:1.0 ()
    | Crashes_and_partitions -> Nemesis.generate_mixed ~params ~seed ~horizon ()
    | Unrepaired_crashes ->
      (* crashes with no Repair events: only the failure detector's
         autonomous crash-repair can bring the victims back *)
      Nemesis.generate_crash_only ~params ~seed ~horizon
    | Bitrot -> with_rot []
    | Partitions_and_bitrot ->
      (* shorter partition windows when rot rides along: a partition
         concurrent with an unhealed rot leaves only k - 1 reachable
         intact elements, so bound how long that overlap can last *)
      with_rot
        (Nemesis.generate_mixed ~params ~seed ~horizon ~partition_fraction:1.0
           ~mean_downtime:40.0 ())
  in
  (* gated: a crash waits until no server is still rebuilding, keeping
     the effective fault count within the budget (see Nemesis.apply_gated) *)
  Nemesis.apply_gated schedule d;
  (* closed-loop clients: chaos can stall any single operation (e.g. a
     partition eats the fast path until retransmissions cross the heal),
     so each client issues its next operation only from the previous
     one's completion callback *)
  let value_index = ref 0 in
  let rec write_loop w () =
    if Engine.now engine < horizon then begin
      let index = !value_index in
      incr value_index;
      Soda.Deployment.write d ~writer:w
        ~at:(Engine.now engine +. 30.0)
        ~on_done:(write_loop w)
        (Workload.value ~len:value_len ~seed ~index)
    end
  in
  let rec read_loop r () =
    if Engine.now engine < horizon then
      Soda.Deployment.read d ~reader:r
        ~at:(Engine.now engine +. 30.0)
        ~on_done:(fun _ -> read_loop r ())
        ()
  in
  write_loop 0 ();
  write_loop 1 ();
  read_loop 0 ();
  read_loop 1 ();
  (* the healing plane's heartbeat/scrub tick chains reschedule forever,
     so a healed run needs an explicit horizon: a long quiescence tail
     after the last client operation. Unhealed runs keep the drain-the-
     queue termination (and their bit-identical traces). *)
  if scenario.healing then Engine.run engine ~until:(horizon +. 600.0)
  else Engine.run engine;
  let history = Soda.Deployment.history d in
  let records = History.records history in
  let atomic =
    match Atomicity.check_tagged ~initial_value records with
    | Ok () -> Ok ()
    | Error v -> Error (Format.asprintf "%a" Atomicity.pp_violation v)
  in
  let events = Engine.trace_events engine in
  let probe = Soda.Deployment.probe d in
  let episodes = Metrics.heal_episodes probe in
  let trace_ok =
    if not trace then Ok ()
    else
      match
        Simnet.Trace_check.check ~lossy:(scenario.loss > 0.0) events
      with
      | Ok () -> Ok ()
      | Error v -> Error (Format.asprintf "%a" Simnet.Trace_check.pp_violation v)
  in
  let heal_ok =
    if scenario.healing then Protocol.Probe.heal_causality probe else Ok ()
  in
  { scenario;
    seed;
    complete = History.all_complete history;
    atomic;
    trace_ok;
    heal_ok;
    ops = List.length records;
    sent = Engine.messages_sent engine;
    delivered = Engine.messages_delivered engine;
    dropped = Engine.messages_dropped engine;
    lost = Engine.messages_lost engine;
    retransmissions = Engine.retransmissions engine;
    duplicates_suppressed = Engine.duplicates_suppressed engine;
    abandoned = Engine.sends_abandoned engine;
    data = Engine.messages_data engine;
    meta = Engine.messages_meta engine;
    acks = Engine.acks_sent engine;
    crash_events = Nemesis.crash_count schedule;
    partition_events = Nemesis.partition_count schedule;
    bitrot_events = Nemesis.bitrot_count schedule;
    scrub_clean = Soda.Deployment.scrub_clean d;
    all_live = Soda.Deployment.all_live d;
    heal_stats = (Soda.Deployment.config d).Soda.Config.heal_stats;
    probe;
    heal_mttd = Metrics.heal_mttd episodes;
    heal_mttr = Metrics.heal_mttr episodes;
    final_time = Engine.now engine;
    events;
    message_log = List.rev !msg_log;
    name_of = Engine.name_of engine
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s seed=%d: %s@,\
     ops=%d complete=%b atomic=%s trace=%s@,\
     sent=%d delivered=%d dropped=%d lost=%d retransmitted=%d deduped=%d \
     abandoned=%d@,\
     data=%d meta=%d acks=%d crashes=%d partitions=%d rots=%d \
     final_time=%.1f"
    o.scenario.name o.seed
    (if ok o then "OK" else "FAIL")
    o.ops o.complete
    (match o.atomic with Ok () -> "ok" | Error e -> e)
    (match o.trace_ok with Ok () -> "ok" | Error e -> e)
    o.sent o.delivered o.dropped o.lost o.retransmissions
    o.duplicates_suppressed o.abandoned o.data o.meta o.acks o.crash_events
    o.partition_events o.bitrot_events o.final_time;
  if o.scenario.healing then begin
    let hs = o.heal_stats and hc = Metrics.heal_counts o.probe in
    Format.fprintf ppf
      "@,heal: clean=%b live=%b heartbeats=%d suspicions=%d sweeps=%d \
       hits=%d auto_repairs=%d scrub_repairs=%d"
      o.scrub_clean o.all_live hs.Soda.Config.heartbeats_sent
      hc.Metrics.suspicions hs.Soda.Config.scrub_sweeps hc.Metrics.scrub_hits
      hc.Metrics.auto_repairs hc.Metrics.scrub_repairs;
    (match o.heal_ok with
    | Ok () -> ()
    | Error e -> Format.fprintf ppf "@,heal axioms: %s" e);
    let pp_durations label = function
      | [] -> ()
      | ds ->
        Format.fprintf ppf "@,%s:" label;
        List.iter (fun d -> Format.fprintf ppf " %.1f" d) ds
    in
    pp_durations "mttd" o.heal_mttd;
    pp_durations "mttr" o.heal_mttr
  end;
  Format.fprintf ppf "@]"
