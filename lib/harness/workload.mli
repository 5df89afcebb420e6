(** Workload specifications for experiments.

    A workload fixes everything that defines an execution — system
    parameters, clients, the operation schedule, the delay model, crash
    and disk-error injection, and the seed — so that any run is
    reproducible from its workload alone. Constructors build the
    schedules used by the paper's experiments; the record is public so
    tests can build bespoke schedules directly. *)

module Params = Protocol.Params

type op =
  | Write of { writer : int; at : float; value : bytes }
  | Read of { reader : int; at : float }

type t = {
  params : Params.t;
  value_len : int;
  num_writers : int;
  num_readers : int;
  ops : op list;
  delay : Simnet.Delay.t;
  seed : int;
  server_crashes : (int * float) list;  (** (coordinate, time) *)
  error_prone : int list  (** coordinates with corrupting disks (SODA{_err}) *)
}

val value : len:int -> seed:int -> index:int -> bytes
(** Deterministic pseudo-random value, distinct for distinct [index]
    (the operation number is mixed into every block), as required by the
    value-based atomicity checker. *)

val sequential :
  params:Params.t -> ?value_len:int -> ?seed:int -> ?delay:Simnet.Delay.t ->
  rounds:int -> unit -> t
(** One writer and one reader alternating: write, quiesce, read, quiesce.
    No overlap between operations (δ{_w} = 0 for every read). *)

val concurrent :
  params:Params.t -> ?value_len:int -> ?seed:int -> ?delay:Simnet.Delay.t ->
  ?num_writers:int -> ?num_readers:int -> ops_per_client:int -> unit -> t
(** Every client issues [ops_per_client] operations with starts staggered
    by one time unit, giving heavy read/write overlap. *)

val read_with_write_storm :
  params:Params.t -> ?value_len:int -> ?seed:int -> writers:int ->
  writes_per_writer:int -> unit -> t
(** The δ{_w} experiment of Theorem 5.6: a single read inside a storm of
    writes under high-variance (exponential) delays, so that the read's
    registration window overlaps a seed-dependent number of writes. The
    harness measures δ{_w} from probes and compares the read's data cost
    against [n/(n-f) * (δ_w + 1)]. *)

(** {1 Sharded (multi-key) workloads}

    Operation schedules over a {!Soda.Keyspace}: each operation names
    a logical key. Writes carry a value {e index} (resolved through
    {!value} at execution time) instead of materialized bytes, so huge
    schedules stay cheap. *)

type kop =
  | KWrite of { key : int; writer : int; at : float; index : int }
  | KRead of { key : int; reader : int; at : float }

type sharded = {
  sh_keys : int;  (** keys are [0 .. sh_keys - 1] *)
  sh_value_len : int;
  sh_num_writers : int;
  sh_num_readers : int;
  sh_kops : kop list;  (** ascending [at] *)
  sh_delay : Simnet.Delay.t;
  sh_seed : int
}

val sharded_mixed :
  keys:int -> ?value_len:int -> ?seed:int -> ?num_writers:int ->
  ?num_readers:int -> ?round_gap:float -> unit -> sharded
(** One write then one read per key: key [k] is written by writer
    [k mod num_writers] (default 4 writers) and read 15 time units
    later by reader [k mod num_readers], with delays uniform in
    [0.2, 2.0]. Writers sweep their keys in rounds [round_gap] (default
    30.0) apart with a small per-writer stagger, so many keys are in
    flight at once — the mixed workload of the sharded-throughput
    bench. *)

val sharded_ops : sharded -> int

val with_crashes : t -> (int * float) list -> t
(** Adds server crash events (coordinate, time). *)

val with_errors : t -> int list -> t
(** Flags server coordinates as error-prone (SODA{_err} runs only). *)

val total_ops : t -> int
