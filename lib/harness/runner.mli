(** Executing a workload against one of the algorithms.

    Every algorithm goes through one run path: a fresh engine (seeded
    from the workload), the algorithm's register deployed on it, the
    workload's crash events and operations scheduled, the simulation run
    to quiescence, and everything an analysis needs packaged. The same
    workload executed twice yields bitwise identical results. *)

module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe

type algorithm =
  | Soda  (** SODA, or SODA{_err} when the workload's params have e > 0. *)
  | Abd
  | Cas of { gc_depth : int option }
      (** [None] = plain CAS; [Some delta] = CASGC(delta). *)
  | Ldr
      (** [2f+1] directories and [2f+1] replicas; the workload's [n] is
          ignored except through [f]. Crash coordinates number the
          directories first, then the replicas. *)

type result = {
  algorithm : string;
  workload : Workload.t;
  history : History.t;
  cost : Cost.t;
  probe : Probe.t option;  (** SODA and CAS deployments emit probes. *)
  initial_value : bytes;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
      (** Messages addressed to a crashed process (crash semantics, not
          link faults). *)
  messages_data : int;
      (** Logical protocol sends carrying coded data (the algorithm's
          [Messages.data_bytes] > 0). *)
  messages_meta : int;  (** Logical protocol sends carrying metadata only. *)
  events_executed : int;
      (** Every event the engine dispatched: deliveries, drops, local
          actions (e.g. dispersal steps), injections, crash/restores. *)
  final_time : float;
  crashed : int -> bool;
      (** by server coordinate, mapped through the register's own
          server pids *)
  read_restarts : int
      (** Reader restarts forced by garbage collection. Non-zero only
          for CASGC (the other algorithms never restart a read);
          surfaced in [Metrics.summary] so chaos/bench reports can
          assert it stays within the δ bound. *)
}

val run : ?plane:Soda.Config.plane -> algorithm -> Workload.t -> result
(** Runs on the raw transport. [plane] (SODA only, ignored by the
    baselines) selects the message-plane configuration — pass
    {!Soda.Config.batched_plane} for coalesced gossip, relay batching
    and staggered metadata forwarding.
    @raise Simnet.Engine.Event_limit_exceeded if the protocol fails to
    quiesce within 20 million events. *)

(** {1 Sharded (multi-key) runs} *)

type sharded_result = {
  s_algorithm : string;  (** ["keyspace"] or ["independent"] *)
  s_keys : int;
  s_ops : int;
  s_complete : bool;  (** liveness: every scheduled operation responded *)
  s_atomic : bool;  (** per-key Lemma 2.1 over every key's history *)
  s_messages_sent : int;
  s_messages_data : int;
  s_messages_meta : int;
  s_payload_units : int;
      (** sum of {!Soda.Messages.logical_units} over every send — what
          the per-key message count {e would} have been without frame
          sharing, so [s_payload_units / s_messages_sent] is the
          coalescing factor *)
  s_events : int;
  s_final_time : float
}

val run_sharded :
  ?plane:Soda.Config.plane -> placement:Soda.Placement.t ->
  Workload.sharded -> sharded_result
(** Execute a sharded workload on one shared-plane {!Soda.Keyspace}
    over the placement's topology, on the raw transport, within 200
    million events. The engine counts data/meta logical sends and
    payload units, so keyspace and independent runs of the same
    workload are directly comparable. *)

val run_sharded_independent :
  ?plane:Soda.Config.plane -> params:Protocol.Params.t ->
  Workload.sharded -> sharded_result
[@@lint.allow "O1: ?plane — test_keyspace's \"shared plane beats \
               independent deployments\" also compares batched planes"]
(** The pre-keyspace composition baseline: every key is its own
    {!Soda.Deployment.deploy} (own [n] server processes, own clients)
    on one engine. Same workload, same instrumentation — the msgs/op
    denominator the sharded bench gates against. *)

val run_sweep : algorithm -> Workload.t list -> result list
(** [run_sweep algorithm workloads] runs each workload independently,
    fanned out across OCaml 5 domains with {!Parallel.map} (its default
    domain count). Each run owns a fresh
    engine and is a pure function of its workload, so the result list is
    in input order and identical to [List.map (run algorithm) workloads]
    — only wall-clock time changes.
    @raise Simnet.Engine.Event_limit_exceeded as {!run} does, re-raised
    after all runs finish. *)
