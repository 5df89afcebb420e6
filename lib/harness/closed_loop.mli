(** Closed-loop clients: each client issues its next operation as soon
    as the previous one completes (plus think time), instead of at
    pre-scheduled instants. This measures {e throughput} — operations
    per unit of simulated time — under sustained, self-paced load, the
    way storage systems are usually benchmarked, and drives far more
    concurrency through the protocol than timed workloads can without
    violating well-formedness. *)

module Params = Protocol.Params
module History = Protocol.History

type result = {
  history : History.t;
  cost : Protocol.Cost.t;
  probe : Protocol.Probe.t;
  initial_value : bytes;
  sim_duration : float;  (** simulated time to complete all operations *)
  wall_seconds : float;  (** host time the simulation took *)
  messages : int
}

val ops_per_time : result -> float
(** Completed operations per unit of simulated time. *)

val run_soda :
  params:Params.t ->
  ?value_len:int ->
  ?seed:int ->
  ?think_time:float ->
  num_writers:int ->
  num_readers:int ->
  ops_per_client:int ->
  unit ->
  result
[@@lint.allow "O1: ?think_time — test_harness's \"throughput responds to \
               think time\" turns it"]
(** Every client performs [ops_per_client] back-to-back operations
    (writers write fresh values, readers read), with [think_time]
    (default 1.0) of idleness between its own operations, over delays
    uniform in [0.2, 2.0]. *)
