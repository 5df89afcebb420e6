module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity

type stats = { count : int; mean : float; max : float; min : float }

let stats_of = function
  | [] -> { count = 0; mean = 0.; max = 0.; min = 0. }
  | values ->
    let count = List.length values in
    let sum = List.fold_left ( +. ) 0. values in
    { count;
      mean = sum /. float_of_int count;
      max = List.fold_left Float.max neg_infinity values;
      min = List.fold_left Float.min infinity values
    }

type summary = {
  algorithm : string;
  ops_total : int;
  ops_complete : int;
  liveness : bool;
  atomic : bool;
  write_cost : stats;
  read_cost : stats;
  storage_max : float;
  storage_final : float;
  write_latency : stats;
  read_latency : stats;
  messages_sent : int;
  messages_data : int;
  messages_meta : int;
  read_restarts : int
}

let summarize (r : Runner.result) =
  let records = History.records r.Runner.history in
  let completed = List.filter (fun o -> Option.is_some o.History.responded_at) records in
  let of_kind kind =
    List.filter (fun o -> o.History.kind = kind) completed
  in
  let cost_of o = Cost.comm_of_op r.Runner.cost ~op:o.History.op in
  let latency_of o = Option.get o.History.responded_at -. o.History.invoked_at in
  let writes = of_kind History.Write and reads = of_kind History.Read in
  { algorithm = r.Runner.algorithm;
    ops_total = List.length records;
    ops_complete = List.length completed;
    liveness = History.all_complete r.Runner.history;
    atomic =
      (match
         Atomicity.check_tagged ~initial_value:r.Runner.initial_value records
       with
      | Ok () -> true
      | Error _ -> false);
    write_cost = stats_of (List.map cost_of writes);
    read_cost = stats_of (List.map cost_of reads);
    storage_max = Cost.max_total_storage r.Runner.cost;
    storage_final = Cost.current_total_storage r.Runner.cost;
    write_latency = stats_of (List.map latency_of writes);
    read_latency = stats_of (List.map latency_of reads);
    messages_sent = r.Runner.messages_sent;
    messages_data = r.Runner.messages_data;
    messages_meta = r.Runner.messages_meta;
    read_restarts = r.Runner.read_restarts
  }

(* {2 Self-healing counts} *)

type heal_counts = {
  suspicions : int;
  scrub_hits : int;
  auto_repairs : int;
  scrub_repairs : int
}

let heal_counts probe =
  List.fold_left
    (fun c e ->
      match e with
      | Probe.Suspected _ -> { c with suspicions = c.suspicions + 1 }
      | Probe.Rot_detected _ -> { c with scrub_hits = c.scrub_hits + 1 }
      | Probe.Auto_repair _ -> { c with auto_repairs = c.auto_repairs + 1 }
      | Probe.Scrub_repaired _ -> { c with scrub_repairs = c.scrub_repairs + 1 }
      | Probe.Registered _ | Probe.Unregistered _ | Probe.Relayed _
      | Probe.Stored _ | Probe.Gc _ | Probe.Repair_started _
      | Probe.Repaired _ | Probe.Crash_injected _ | Probe.Rot_injected _ ->
        c)
    { suspicions = 0; scrub_hits = 0; auto_repairs = 0; scrub_repairs = 0 }
    (Probe.events probe)

(* {2 Self-healing episodes}

   A fault's lifecycle is reconstructed from the probe stream in time
   order ([Probe.chronological]: a crash may be scheduled ahead, and its
   [Crash_injected] emitted then). Crash episodes run Crash_injected ->
   first Suspected -> Repaired; rot episodes run Rot_injected -> first
   Rot_detected -> first restoration, which is either a targeted scrub
   repair (Scrub_repaired) or an overwriting write (Stored recomputes
   the checksum, healing the rot as a side effect). *)

type heal_episode = {
  server : int;
  fault : [ `Crash | `Rot ];
  injected_at : float;
  detected_at : float option;
  healed_at : float option
}

let heal_episodes probe =
  let open_crash = Hashtbl.create 8 and open_rot = Hashtbl.create 8 in
  let closed = ref [] in
  let close tbl server healed_at =
    match Hashtbl.find_opt tbl server with
    | None -> ()
    | Some ep ->
      Hashtbl.remove tbl server;
      closed := { ep with healed_at = Some healed_at } :: !closed
  in
  let detect tbl server time =
    match Hashtbl.find_opt tbl server with
    | Some ({ detected_at = None; _ } as ep) ->
      Hashtbl.replace tbl server { ep with detected_at = Some time }
    | Some _ | None -> ()
  in
  List.iter
    (fun e ->
      match e with
      | Probe.Crash_injected { server; time } ->
        Hashtbl.replace open_crash server
          { server; fault = `Crash; injected_at = time; detected_at = None;
            healed_at = None }
      | Probe.Rot_injected { server; time } ->
        Hashtbl.replace open_rot server
          { server; fault = `Rot; injected_at = time; detected_at = None;
            healed_at = None }
      | Probe.Suspected { target; time; _ } -> detect open_crash target time
      | Probe.Rot_detected { server; time } -> detect open_rot server time
      | Probe.Repaired { server; time; _ } -> close open_crash server time
      | Probe.Scrub_repaired { server; time; _ }
      | Probe.Stored { server; time; _ } ->
        close open_rot server time
      | Probe.Registered _ | Probe.Unregistered _ | Probe.Relayed _
      | Probe.Gc _ | Probe.Repair_started _ | Probe.Auto_repair _ ->
        ())
    (Probe.chronological probe);
  let[@lint.allow
       "D3: the fold's arbitrary order is erased by the total sort on \
        (injected_at, server, fault) before the list reaches a caller"]
      still_open tbl =
    Hashtbl.fold (fun _ ep acc -> ep :: acc) tbl []
  in
  let fault_rank = function `Crash -> 0 | `Rot -> 1 in
  List.sort
    (fun a b ->
      match Float.compare a.injected_at b.injected_at with
      | 0 -> (
        match Int.compare a.server b.server with
        | 0 -> Int.compare (fault_rank a.fault) (fault_rank b.fault)
        | c -> c)
      | c -> c)
    (!closed @ still_open open_crash @ still_open open_rot)

let heal_mttd episodes =
  List.filter_map
    (fun ep ->
      Option.map (fun d -> d -. ep.injected_at) ep.detected_at)
    episodes

let heal_mttr episodes =
  List.filter_map
    (fun ep -> Option.map (fun h -> h -. ep.injected_at) ep.healed_at)
    episodes

let delta_w (r : Runner.result) ~rid =
  match r.Runner.probe with
  | None -> None
  | Some probe ->
    (match
       Probe.registration_window ~is_crashed:r.Runner.crashed probe ~rid
     with
    | None -> None
    | Some (t1, t2) ->
      let count =
        List.fold_left
          (fun acc o ->
            if
              o.History.kind = History.Write
              && o.History.invoked_at >= t1
              && o.History.invoked_at <= t2
            then acc + 1
            else acc)
          0
          (History.records r.Runner.history)
      in
      Some count)

let concurrent_writes (r : Runner.result) ~rid ~slack =
  match r.Runner.probe with
  | None -> None
  | Some probe ->
    (match
       Probe.registration_window ~is_crashed:r.Runner.crashed probe ~rid
     with
    | None -> None
    | Some (t1, t2) ->
      let count =
        List.fold_left
          (fun acc o ->
            if
              o.History.kind = History.Write
              && o.History.invoked_at <= t2
              && (match o.History.responded_at with
                 | None -> true
                 | Some res -> res +. slack >= t1)
            then acc + 1
            else acc)
          0
          (History.records r.Runner.history)
      in
      Some count)

let reads_with_delta_w (r : Runner.result) =
  match r.Runner.probe with
  | None -> []
  | Some _ ->
    History.records r.Runner.history
    |> List.filter_map (fun o ->
           if o.History.kind = History.Read && Option.is_some o.History.responded_at
           then
             match delta_w r ~rid:o.History.op with
             | Some dw ->
               Some (o.History.op, dw, Cost.comm_of_op r.Runner.cost ~op:o.History.op)
             | None -> None
           else None)

let pp_stats ppf s =
  if s.count = 0 then Format.pp_print_string ppf "-"
  else Format.fprintf ppf "mean %.3f max %.3f" s.mean s.max

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%s: %d/%d ops complete, liveness=%b atomic=%b@,\
     write cost: %a@,read cost: %a@,storage max: %.3f@,\
     write latency: %a@,read latency: %a@,\
     messages: %d (data %d, meta %d)@]"
    s.algorithm s.ops_complete s.ops_total s.liveness s.atomic pp_stats
    s.write_cost pp_stats s.read_cost s.storage_max pp_stats s.write_latency
    pp_stats s.read_latency s.messages_sent s.messages_data s.messages_meta

(* ------------------------------------------------------------------ *)
(* Sharded-run economics *)

let sharded_msgs_per_op (r : Runner.sharded_result) =
  if r.Runner.s_ops = 0 then 0.
  else float_of_int r.Runner.s_messages_sent /. float_of_int r.Runner.s_ops

let sharded_units_per_msg (r : Runner.sharded_result) =
  if r.Runner.s_messages_sent = 0 then 0.
  else
    float_of_int r.Runner.s_payload_units
    /. float_of_int r.Runner.s_messages_sent
