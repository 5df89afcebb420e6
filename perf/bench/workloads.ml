(* The benchmark's three workloads, built only through the public APIs
   of lib/. Each one turns a seed into a prepared engine: every input is
   generated, every value materialised, the system deployed and every
   operation (or every closed-loop client's first operation) scheduled,
   so that what is left is running the engine. *)

module Engine = Simnet.Engine
module Rng = Simnet.Rng
module Delay = Simnet.Delay
module Messages = Soda.Messages
module Config = Soda.Config
module Deployment = Soda.Deployment
module Keyspace = Soda.Keyspace
module History = Protocol.History
module Cost = Protocol.Cost
module Params = Protocol.Params
module Atomicity = Protocol.Atomicity
module Mds = Erasure.Mds
module Workload = Harness.Workload

(* ------------------------------------------------------------------ *)
(* Message kinds, named after the automaton whose handler runs them *)

let kinds =
  [| "soda.server.write_get";
     "soda.server.read_get";
     "soda.server.md_full";
     "soda.server.md_coded";
     "soda.server.md_meta";
     "soda.server.gossip";
     "soda.writer.write_get_reply";
     "soda.writer.write_ack";
     "soda.reader.read_get_reply";
     "soda.reader.relay"
  |]

let other_kind = "simnet.engine.other"

(* Index into [kinds] of a delivered message, unwrapped to its innermost
   constructor; piggybacked gossip rides with the message that carries
   it. Healing and repair traffic (absent from these workloads) counts
   as [Array.length kinds], the "other" bucket. *)
let rec classify (m : Messages.t) =
  match m with
  | Messages.Write_get _ -> 0
  | Messages.Read_get _ -> 1
  | Messages.Md_full _ -> 2
  | Messages.Md_coded _ -> 3
  | Messages.Md_meta _ -> 4
  | Messages.Gossip _ | Messages.Keyed_gossip _ -> 5
  | Messages.Write_get_reply _ -> 6
  | Messages.Write_ack _ -> 7
  | Messages.Read_get_reply _ -> 8
  | Messages.Relay _ | Messages.Relay_batch _ | Messages.Keyed_batch _ -> 9
  | Messages.Envelope { msg; _ }
  | Messages.Keyed { msg; _ }
  | Messages.Keyed_envelope { msg; _ } ->
    classify msg
  | Messages.Repair_get _ | Messages.Repair_reply _ | Messages.Heartbeat _
  | Messages.Suspect_vote _ ->
    Array.length kinds

(* ------------------------------------------------------------------ *)

type ledger = { history : History.t; cost : Cost.t }

type prepared = {
  engine : Messages.t Engine.t;
  scheduled : int;  (** operations the workload invokes in all *)
  delta : float;  (** the delay model's cap Δ, the latency unit *)
  code : Mds.t;  (** the codec the deployment runs, not a copy *)
  decode_threshold : int;
  value_len : int;
  ledgers : unit -> ledger list;  (** one per key *)
  check_atomicity : unit -> (unit, string) result;
  gen_s : float;  (** workload generation *)
  materialize_s : float;
      (** [Keyspace.materialize] of every key; 0 without a keyspace *)
  heap_bytes_per_key : float
      (** live heap the materialised instances hold, per key; measured
          only when asked (it forces full major collections) *)
}

type t = {
  name : string;
  min_reps : int;
      (** repetitions pooled for the execution metrics, enough for a
          steady p99 *)
  committed_msgs_per_op : string option;
      (** msgs/op at seed 1, to two decimals, as a committed BENCH_*.json
          row records it: proof that this harness drives the same system *)
  prepare : seed:int -> heap_probe:bool -> prepared
}

let delay = Delay.uniform ~lo:0.2 ~hi:2.0

let cap d = match Delay.upper_bound d with Some c -> c | None -> 1.0

let make_engine ~seed ~transport ~delay =
  Engine.create ~seed ~transport ~delay
    ~classify:(fun m -> Messages.data_bytes m > 0)
    ~weigh:Messages.logical_units ()

let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

let violation_string v = Format.asprintf "%a" Atomicity.pp_violation v

(* ------------------------------------------------------------------ *)
(* kv-10k: the committed keyspace-batched row of BENCH_sharded.json —
   10,000 keys, 4+2 over 12 servers in 3 domains, open loop *)

let kv_keys = 10_000

type kop =
  | W of { key : int; writer : int; at : float; value : bytes }
  | R of { key : int; reader : int; at : float }

let kv_10k ~seed ~heap_probe =
  let t0 = Clock.now () in
  let wl =
    Workload.sharded_mixed ~keys:kv_keys ~value_len:64 ~seed ~num_writers:4
      ~num_readers:4 ~round_gap:10.0 ()
  in
  let gen_s = Clock.now () -. t0 in
  let value_len = wl.Workload.sh_value_len in
  let plan =
    List.map
      (function
        | Workload.KWrite { key; writer; at; index } ->
          W
            { key;
              writer;
              at;
              value =
                Workload.value ~len:value_len ~seed:wl.Workload.sh_seed ~index
            }
        | Workload.KRead { key; reader; at } -> R { key; reader; at })
      wl.Workload.sh_kops
  in
  let params = Soda.Placement.preset_params `P4_2 in
  let topology = Soda.Topology.make ~servers:12 ~domains:3 () in
  let placement =
    Soda.Placement.create ~topology ~params
      ~policy:Soda.Placement.Consistent_hash ()
  in
  let engine =
    make_engine ~seed:wl.Workload.sh_seed ~transport:`Raw
      ~delay:wl.Workload.sh_delay
  in
  let ks =
    Keyspace.create ~engine ~placement ~plane:Config.batched_plane ~value_len
      ~num_writers:wl.Workload.sh_num_writers
      ~num_readers:wl.Workload.sh_num_readers ()
  in
  let live0 = if heap_probe then live_bytes () else 0.0 in
  let t1 = Clock.now () in
  for key = 0 to kv_keys - 1 do
    Keyspace.materialize ks ~key
  done;
  let materialize_s = Clock.now () -. t1 in
  let heap_bytes_per_key =
    if heap_probe then (live_bytes () -. live0) /. float_of_int kv_keys
    else 0.0
  in
  List.iter
    (function
      | W { key; writer; at; value } -> Keyspace.write ks ~key ~writer ~at value
      | R { key; reader; at } -> Keyspace.read ks ~key ~reader ~at ())
    plan;
  let config = Keyspace.config ks ~key:0 in
  { engine;
    scheduled = Workload.sharded_ops wl;
    delta = cap wl.Workload.sh_delay;
    code = config.Config.code;
    decode_threshold = config.Config.decode_threshold;
    value_len;
    ledgers =
      (fun () ->
        List.map
          (fun key ->
            { history = Keyspace.history ks ~key;
              cost = Keyspace.cost ks ~key
            })
          (Keyspace.keys ks));
    check_atomicity =
      (fun () ->
        match Keyspace.check_atomicity ks with
        | Ok () -> Ok ()
        | Error (key, v) ->
          Error (Printf.sprintf "key %d: %s" key (violation_string v)));
    gen_s;
    materialize_s;
    heap_bytes_per_key
  }

(* ------------------------------------------------------------------ *)
(* Closed-loop single-register workloads: 4 writers and 4 readers, each
   issuing its next operation a seeded think time after the previous one
   completes *)

type fault =
  | Partition of { servers : int; from_ : float; until_ : float }
      (** that many seeded coordinates cut off, then healed *)
  | Error_window of { from_ : float; until_ : float }
      (** one seeded coordinate returns corrupted elements in the window *)

type closed = {
  params : Params.t;
  c_value_len : int;
  transport : [ `Raw | `Reliable of Simnet.Channel.config ];
  loss : float;
  fault : fault
}

let clients = 4
let ops_per_client = 128

let closed_loop c ~seed ~heap_probe:_ =
  let t0 = Clock.now () in
  let rng = Rng.create seed in
  let thinks () =
    Array.init clients (fun _ ->
        Array.init ops_per_client (fun _ -> 0.5 +. Rng.float rng 1.0))
  in
  let writer_think = thinks () in
  let reader_think = thinks () in
  let n = Params.n c.params in
  let coordinates = Array.init n Fun.id in
  Rng.shuffle_in_place rng coordinates;
  let gen_s = Clock.now () -. t0 in
  let len = c.c_value_len in
  let values =
    Array.init (clients * ops_per_client) (fun index ->
        Workload.value ~len ~seed ~index)
  in
  let initial_value = Workload.value ~len ~seed ~index:999_983 in
  let engine = make_engine ~seed ~transport:c.transport ~delay in
  if c.loss > 0.0 then Engine.set_loss engine c.loss;
  let error_prone =
    match c.fault with
    | Error_window _ -> [ coordinates.(0) ]
    | Partition _ -> []
  in
  let d =
    Deployment.deploy ~engine ~params:c.params ~initial_value ~value_len:len
      ~error_prone ~num_writers:clients ~num_readers:clients ()
  in
  (match c.fault with
  | Partition { servers; from_; until_ } ->
    let cut = Array.to_list (Array.sub coordinates 0 servers) in
    Deployment.partition_servers d ~coordinates:cut ~at:from_;
    Deployment.heal_servers d ~coordinates:cut ~at:until_
  | Error_window { from_; until_ } ->
    Deployment.set_error_window d ~coordinate:coordinates.(0)
      (Some (from_, until_)));
  let rec writer_loop w i () =
    if i < ops_per_client then
      Deployment.write d ~writer:w
        ~at:(Engine.now engine +. writer_think.(w).(i))
        ~on_done:(writer_loop w (i + 1))
        values.((w * ops_per_client) + i)
  in
  let rec reader_loop r i () =
    if i < ops_per_client then
      Deployment.read d ~reader:r
        ~at:(Engine.now engine +. reader_think.(r).(i))
        ~on_done:(fun _ -> reader_loop r (i + 1) ())
        ()
  in
  for client = 0 to clients - 1 do
    writer_loop client 0 ();
    reader_loop client 0 ()
  done;
  let config = Deployment.config d in
  { engine;
    scheduled = 2 * clients * ops_per_client;
    delta = cap delay;
    code = config.Config.code;
    decode_threshold = config.Config.decode_threshold;
    value_len = len;
    ledgers =
      (fun () ->
        [ { history = Deployment.history d; cost = Deployment.cost d } ]);
    check_atomicity =
      (fun () ->
        match
          Atomicity.check_tagged ~initial_value:(Deployment.initial_value d)
            (History.records (Deployment.history d))
        with
        | Ok () -> Ok ()
        | Error v -> Error (violation_string v));
    gen_s;
    materialize_s = 0.0;
    heap_bytes_per_key = 0.0
  }

(* soak-lossy: n=10, f=4 on the paper's broadcast plane over the
   reliable channel, 20% loss on every link, f servers cut off for a
   window mid-run; 1 KiB values *)
let soak_lossy =
  closed_loop
    { params = Params.make ~n:10 ~f:4 ();
      c_value_len = 1024;
      transport = `Reliable Simnet.Channel.default;
      loss = 0.2;
      fault = Partition { servers = 4; from_ = 400.0; until_ = 800.0 }
    }

(* err-decode: SODAerr at n=10, f=2, e=1 (rs-bch[10,6], decode
   threshold 8) on the raw transport; one coordinate corrupts what it
   reads from disk during the middle quarter of the run; 4 KiB values *)
let err_decode =
  closed_loop
    { params = Params.make ~n:10 ~f:2 ~e:1 ();
      c_value_len = 4096;
      transport = `Raw;
      loss = 0.0;
      fault = Error_window { from_ = 300.0; until_ = 500.0 }
    }

let all =
  [ { name = "kv-10k";
      min_reps = 1;
      (* BENCH_sharded.json, case keyspace-batched *)
      committed_msgs_per_op = Some "34.26";
      prepare = kv_10k
    };
    { name = "soak-lossy";
      min_reps = 8;
      committed_msgs_per_op = None;
      prepare = soak_lossy
    };
    { name = "err-decode";
      min_reps = 4;
      committed_msgs_per_op = None;
      prepare = err_decode
    }
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
