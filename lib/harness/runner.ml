module Engine = Simnet.Engine
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe

type algorithm = Soda | Abd | Cas of { gc_depth : int option } | Ldr

let algorithm_name = function
  | Soda -> "soda"
  | Abd -> "abd"
  | Cas { gc_depth = None } -> "cas"
  | Cas { gc_depth = Some d } -> Printf.sprintf "casgc(%d)" d
  | Ldr -> "ldr"

type result = {
  algorithm : string;
  workload : Workload.t;
  history : History.t;
  cost : Cost.t;
  probe : Probe.t option;
  initial_value : bytes;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_data : int;
  messages_meta : int;
  events_executed : int;
  final_time : float;
  crashed : int -> bool;
  read_restarts : int
}

(* The one run path: the register [d], already deployed on [engine] by
   the algorithm's adapter in [run], gets the workload's crashes and
   operations and runs to quiescence. *)
let execute (type d) (module R : Baselines.Register.S with type t = d)
    ?probe ?(read_restarts = fun _ -> 0) ~name engine
    (w : Workload.t) (d : d) =
  List.iter
    (fun (coordinate, at) -> R.crash_server d ~coordinate ~at)
    w.Workload.server_crashes;
  List.iter
    (function
      | Workload.Write { writer; at; value } -> R.write d ~writer ~at value
      | Workload.Read { reader; at } -> R.read d ~reader ~at ())
    w.Workload.ops;
  Engine.run ~max_events:20_000_000 engine;
  { algorithm = name;
    workload = w;
    history = R.history d;
    cost = R.cost d;
    probe;
    initial_value = R.initial_value d;
    messages_sent = Engine.messages_sent engine;
    messages_delivered = Engine.messages_delivered engine;
    messages_dropped = Engine.messages_dropped engine;
    messages_data = Engine.messages_data engine;
    messages_meta = Engine.messages_meta engine;
    events_executed = Engine.events_executed engine;
    final_time = Engine.now engine;
    crashed =
      (fun coordinate -> Engine.is_crashed engine (R.server_pid d ~coordinate));
    read_restarts = read_restarts d
  }

let run ?plane algorithm (w : Workload.t) =
  let { Workload.params; value_len; num_writers; num_readers; seed; _ } = w in
  let initial_value = Workload.value ~len:value_len ~seed ~index:999_983 in
  let engine data_bytes =
    Engine.create ~seed ~delay:w.Workload.delay
      ~classify:(fun m -> data_bytes m > 0)
      ()
  in
  let name = algorithm_name algorithm in
  match algorithm with
  | Soda ->
    let engine = engine Soda.Messages.data_bytes in
    let d =
      Soda.Deployment.deploy ~engine ~params ~initial_value ~value_len
        ~error_prone:w.Workload.error_prone ?plane ~num_writers ~num_readers ()
    in
    execute
      (module Soda.Deployment)
      ~probe:(Soda.Deployment.probe d)
      ~name:(if Protocol.Params.e params > 0 then "soda-err" else name)
      engine w d
  | Abd ->
    let engine = engine Baselines.Abd.Messages.data_bytes in
    Baselines.Abd.deploy ~engine ~params ~initial_value ~value_len ~num_writers
      ~num_readers ()
    |> execute (module Baselines.Abd) ~name engine w
  | Cas { gc_depth } ->
    let engine = engine Baselines.Cas.Messages.data_bytes in
    let d =
      Baselines.Cas.deploy ~engine ~params ?gc_depth ~initial_value ~value_len
        ~num_writers ~num_readers ()
    in
    execute
      (module Baselines.Cas)
      ~probe:(Baselines.Cas.probe d) ~read_restarts:Baselines.Cas.read_restarts
      ~name engine w d
  | Ldr ->
    let engine = engine Baselines.Ldr.Messages.data_bytes in
    Baselines.Ldr.deploy ~engine ~params ~initial_value ~value_len ~num_writers
      ~num_readers ()
    |> execute (module Baselines.Ldr) ~name engine w

let run_sweep algorithm workloads = Parallel.map (run algorithm) workloads

(* ------------------------------------------------------------------ *)
(* Sharded runs: one multi-key workload against either a shared-plane
   keyspace or the one-deployment-per-key composition it replaces. Both
   run on one engine with the same classify/weigh instrumentation, so
   their message economics are directly comparable. *)

type sharded_result = {
  s_algorithm : string;
  s_keys : int;
  s_ops : int;
  s_complete : bool;
  s_atomic : bool;
  s_messages_sent : int;
  s_messages_data : int;
  s_messages_meta : int;
  s_payload_units : int;
  s_events : int;
  s_final_time : float
}

let sharded_max_events = 200_000_000

let sharded_engine (s : Workload.sharded) =
  Engine.create ~seed:s.Workload.sh_seed ~delay:s.Workload.sh_delay
    ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
    ~weigh:Soda.Messages.logical_units ()

let sharded_value (s : Workload.sharded) ~index =
  Workload.value ~len:s.Workload.sh_value_len ~seed:s.Workload.sh_seed ~index

let run_sharded ?plane ~placement (s : Workload.sharded) =
  let engine = sharded_engine s in
  let ks =
    Soda.Keyspace.create ~engine ~placement ?plane
      ~value_len:s.Workload.sh_value_len
      ~num_writers:s.Workload.sh_num_writers
      ~num_readers:s.Workload.sh_num_readers ()
  in
  List.iter
    (function
      | Workload.KWrite { key; writer; at; index } ->
        Soda.Keyspace.write ks ~key ~writer ~at (sharded_value s ~index)
      | Workload.KRead { key; reader; at } ->
        Soda.Keyspace.read ks ~key ~reader ~at ())
    s.Workload.sh_kops;
  Engine.run ~max_events:sharded_max_events engine;
  { s_algorithm = "keyspace";
    s_keys = List.length (Soda.Keyspace.keys ks);
    s_ops = Workload.sharded_ops s;
    s_complete = Soda.Keyspace.all_complete ks;
    s_atomic = Result.is_ok (Soda.Keyspace.check_atomicity ks);
    s_messages_sent = Engine.messages_sent engine;
    s_messages_data = Engine.messages_data engine;
    s_messages_meta = Engine.messages_meta engine;
    s_payload_units = Engine.payload_units engine;
    s_events = Engine.events_executed engine;
    s_final_time = Engine.now engine
  }

let run_sharded_independent ?plane ~params (s : Workload.sharded) =
  let engine = sharded_engine s in
  (* the pre-keyspace composition: every key is a full deployment with
     its own n servers and its own single-lane clients *)
  let deployments =
    Array.init s.Workload.sh_keys (fun _ ->
        Soda.Deployment.deploy ~engine ~params
          ~value_len:s.Workload.sh_value_len ?plane ~num_writers:1
          ~num_readers:1 ())
  in
  List.iter
    (function
      | Workload.KWrite { key; at; index; _ } ->
        Soda.Deployment.write deployments.(key) ~writer:0 ~at
          (sharded_value s ~index)
      | Workload.KRead { key; at; _ } ->
        Soda.Deployment.read deployments.(key) ~reader:0 ~at ())
    s.Workload.sh_kops;
  Engine.run ~max_events:sharded_max_events engine;
  let all_complete =
    Array.for_all
      (fun d -> History.all_complete (Soda.Deployment.history d))
      deployments
  in
  let atomic =
    Array.for_all
      (fun d ->
        match
          Protocol.Atomicity.check_tagged
            ~initial_value:(Soda.Deployment.initial_value d)
            (History.records (Soda.Deployment.history d))
        with
        | Ok () -> true
        | Error _ -> false)
      deployments
  in
  { s_algorithm = "independent";
    s_keys = s.Workload.sh_keys;
    s_ops = Workload.sharded_ops s;
    s_complete = all_complete;
    s_atomic = atomic;
    s_messages_sent = Engine.messages_sent engine;
    s_messages_data = Engine.messages_data engine;
    s_messages_meta = Engine.messages_meta engine;
    s_payload_units = Engine.payload_units engine;
    s_events = Engine.events_executed engine;
    s_final_time = Engine.now engine
  }
