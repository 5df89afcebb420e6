(** Validation of engine traces against the network model's axioms.

    Used as a meta-test of the simulator itself (and available to debug
    protocol runs): given the event log of a traced execution, verify
    that the engine really implemented the paper's channel and crash
    semantics — or, when a fault plane was configured, the lossy model's
    semantics. *)

type violation = {
  what : string;
  index : int  (** position of the offending event in the trace *)
}

val pp_violation : Format.formatter -> violation -> unit

val check : ?lossy:bool -> Engine.event list -> (unit, violation) result
(** Verifies, over the whole trace:
    - timestamps are non-decreasing;
    - every delivery, drop or loss is matched to an earlier unconsumed
      send on the same (src, dst) channel, and each send is consumed at
      most once;
    - no process is delivered a message after it crashed (unless restored
      in between), and drops only happen at crashed destinations;
    - a process crashes (resp. is restored) only when alive (resp.
      crashed);
    - a [Lost] event has an active cause: either a partition covering
      its link at that point of the trace, or [lossy] (the caller knows
      the run had a nonzero drop probability, {!Engine.set_loss});
      defaults to [false], which is exactly the reliable-model check on
      fault-free traces;
    - partitions strictly alternate start/heal per canonical link-set,
      and a heal never underflows a link's active-partition count. *)

