(* One repetition of a workload: set up, run (plain or traced), check,
   and reduce the execution to the numbers the benchmark reports. *)

module Engine = Simnet.Engine
module History = Protocol.History
module Cost = Protocol.Cost

type outcome = {
  setup_s : float;  (** rep start to just before the first event *)
  gen_s : float;
  materialize_s : float;
  heap_bytes_per_key : float;
  run_s : float;
  sim_time : float;  (** simulated time at the last event *)
  check_s : float;  (** the atomicity check *)
  scheduled : int;
  completed : int;
  writes : int;
  reads : int;
  write_lat : float array;  (** sorted, in Δ *)
  read_lat : float array;
  events : int;
  sent : int;
  lost : int;
  acks : int;
  retransmits : int;
  abandoned : int;
  payload_units : int;
  data_units : float;  (** [Cost.total_comm] summed over keys *)
  storage_units : float;  (** max over keys of [Cost.max_total_storage] *)
  atomicity : (unit, string) result;
  trace : Tracer.t option;
  code : Erasure.Mds.t;
  decode_threshold : int;
  value_len : int
}

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let run (w : Workloads.t) ~seed ~traced =
  let t0 = Clock.now () in
  let p = w.Workloads.prepare ~seed ~heap_probe:traced in
  let t1 = Clock.now () in
  let trace =
    if traced then
      Some
        (Tracer.run ~kinds:Workloads.kinds ~classify:Workloads.classify
           p.Workloads.engine)
    else begin
      Engine.run ~max_events:max_int p.Workloads.engine;
      None
    end
  in
  let t2 = Clock.now () in
  let atomicity = p.Workloads.check_atomicity () in
  let t3 = Clock.now () in
  let ledgers = p.Workloads.ledgers () in
  let delta = p.Workloads.delta in
  let wl = ref [] and rl = ref [] in
  let data_units = ref 0.0 and storage_units = ref 0.0 in
  List.iter
    (fun (l : Workloads.ledger) ->
      List.iter
        (fun (r : History.record) ->
          match r.History.responded_at with
          | None -> ()
          | Some t -> (
            let lat = (t -. r.History.invoked_at) /. delta in
            match r.History.kind with
            | History.Write -> wl := lat :: !wl
            | History.Read -> rl := lat :: !rl))
        (History.records l.Workloads.history);
      data_units := !data_units +. Cost.total_comm l.Workloads.cost;
      storage_units :=
        Float.max !storage_units (Cost.max_total_storage l.Workloads.cost))
    ledgers;
  let write_lat = sorted !wl and read_lat = sorted !rl in
  let e = p.Workloads.engine in
  { setup_s = t1 -. t0;
    gen_s = p.Workloads.gen_s;
    materialize_s = p.Workloads.materialize_s;
    heap_bytes_per_key = p.Workloads.heap_bytes_per_key;
    run_s = t2 -. t1;
    sim_time = Engine.now e;
    check_s = t3 -. t2;
    scheduled = p.Workloads.scheduled;
    completed = Array.length write_lat + Array.length read_lat;
    writes = Array.length write_lat;
    reads = Array.length read_lat;
    write_lat;
    read_lat;
    events = Engine.events_executed e;
    sent = Engine.messages_sent e;
    lost = Engine.messages_lost e;
    acks = Engine.acks_sent e;
    retransmits = Engine.retransmissions e;
    abandoned = Engine.sends_abandoned e;
    payload_units = Engine.payload_units e;
    data_units = !data_units;
    storage_units = !storage_units;
    atomicity;
    trace;
    code = p.Workloads.code;
    decode_threshold = p.Workloads.decode_threshold;
    value_len = p.Workloads.value_len
  }

(* Set-up alone, for more samples of its wall time. *)
let setup_only (w : Workloads.t) ~seed =
  let t0 = Clock.now () in
  ignore (w.Workloads.prepare ~seed ~heap_probe:false : Workloads.prepared);
  Clock.now () -. t0

(* The executions of several repetitions as one: latency samples and
   counts pooled, storage the maximum. Wall-clock fields are the
   first's. *)
let pool = function
  | [] -> invalid_arg "Rep.pool"
  | first :: _ as os ->
    let sum f = List.fold_left (fun a o -> a + f o) 0 os in
    let sumf f = List.fold_left (fun a o -> a +. f o) 0.0 os in
    let merged f = sorted (List.concat_map (fun o -> Array.to_list (f o)) os) in
    { first with
      scheduled = sum (fun o -> o.scheduled);
      completed = sum (fun o -> o.completed);
      writes = sum (fun o -> o.writes);
      reads = sum (fun o -> o.reads);
      write_lat = merged (fun o -> o.write_lat);
      read_lat = merged (fun o -> o.read_lat);
      events = sum (fun o -> o.events);
      sent = sum (fun o -> o.sent);
      lost = sum (fun o -> o.lost);
      acks = sum (fun o -> o.acks);
      retransmits = sum (fun o -> o.retransmits);
      abandoned = sum (fun o -> o.abandoned);
      payload_units = sum (fun o -> o.payload_units);
      data_units = sumf (fun o -> o.data_units);
      storage_units =
        List.fold_left (fun a o -> Float.max a o.storage_units) 0.0 os
    }

let per_op o x =
  if o.completed = 0 then 0.0 else float_of_int x /. float_of_int o.completed

let msgs_per_op o = per_op o o.sent

(* What must not differ between two runs of one seed, traced or not. *)
let same_execution a b =
  a.events = b.events && a.sent = b.sent && a.completed = b.completed
  && a.writes = b.writes
  && List.for_all
       (fun p ->
         Float.equal (percentile a.write_lat p) (percentile b.write_lat p)
         && Float.equal (percentile a.read_lat p) (percentile b.read_lat p))
       [ 0.5; 0.99 ]
  && Bool.equal (Result.is_ok a.atomicity) (Result.is_ok b.atomicity)

(* The correctness failures of one outcome, as messages. *)
let failures o =
  List.concat
    [ (if o.completed < o.scheduled then
         [ Printf.sprintf "liveness: %d of %d operations completed" o.completed
             o.scheduled ]
       else []);
      (match o.atomicity with
      | Ok () -> []
      | Error v -> [ "atomicity: " ^ v ]);
      (if o.abandoned > 0 then
         [ Printf.sprintf "channel: %d sends abandoned" o.abandoned ]
       else [])
    ]
