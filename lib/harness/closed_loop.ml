module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History

type result = {
  history : History.t;
  cost : Protocol.Cost.t;
  probe : Protocol.Probe.t;
  initial_value : bytes;
  sim_duration : float;
  wall_seconds : float;
  messages : int
}

let ops_per_time r =
  if r.sim_duration <= 0. then 0.
  else float_of_int (History.size r.history) /. r.sim_duration

let run_soda ~params ?(value_len = 1024) ?(seed = 1) ?(think_time = 1.0)
    ~num_writers ~num_readers ~ops_per_client () =
  let initial_value = Workload.value ~len:value_len ~seed ~index:999_983 in
  let engine =
    Engine.create ~seed ~delay:(Simnet.Delay.uniform ~lo:0.2 ~hi:2.0) ()
  in
  let d =
    Soda.Deployment.deploy ~engine ~params ~initial_value ~value_len
      ~num_writers ~num_readers ()
  in
  Protocol.Probe.record (Soda.Deployment.probe d);
  let value_counter = ref 0 in
  (* each client re-arms itself from its completion callback *)
  let rec writer_loop w remaining () =
    if remaining > 0 then begin
      let index = !value_counter in
      incr value_counter;
      Soda.Deployment.write d ~writer:w
        ~at:(Engine.now engine +. think_time)
        ~on_done:(writer_loop w (remaining - 1))
        (Workload.value ~len:value_len ~seed ~index)
    end
  in
  let rec reader_loop r remaining () =
    if remaining > 0 then
      Soda.Deployment.read d ~reader:r
        ~at:(Engine.now engine +. think_time)
        ~on_done:(fun _ -> reader_loop r (remaining - 1) ())
        ()
  in
  for w = 0 to num_writers - 1 do
    writer_loop w ops_per_client ()
  done;
  for r = 0 to num_readers - 1 do
    reader_loop r ops_per_client ()
  done;
  let[@lint.allow
       "D1: measures host throughput for reporting only; never feeds \
        simulated time or protocol decisions"] t0 = Unix.gettimeofday () in
  Engine.run engine;
  let[@lint.allow
       "D1: measures host throughput for reporting only; never feeds \
        simulated time or protocol decisions"] wall_seconds =
    Unix.gettimeofday () -. t0
  in
  { history = Soda.Deployment.history d;
    cost = Soda.Deployment.cost d;
    probe = Soda.Deployment.probe d;
    initial_value;
    sim_duration = Engine.now engine;
    wall_seconds;
    messages = Engine.messages_sent engine
  }
