(** A multi-object atomic store composed of SODA registers.

    Section II of the paper: "A shared atomic memory can be emulated by
    composing individual atomic objects. Therefore, we aim to implement
    only one atomic read/write memory object." This module is that
    composition: a named collection of independent SODA (or SODA{_err})
    registers sharing one simulation, one physical server fleet and one
    fault schedule.

    Each object is its own register emulation — per-object tags, quorums
    and registered-reader sets, exactly as composing n single-object
    automata prescribes — while machine-level faults apply across all of
    them: {!crash_server} takes down coordinate [i]'s processes for
    every object, and {!repair_server} brings them all back through the
    repair protocol. Clients are single-lane per object, so one client
    may operate on different objects concurrently (well-formedness is a
    per-object notion).

    Atomicity of the composition follows from atomicity per object:
    operations on distinct registers commute. {!check_atomicity} checks
    every object's history.

    The store is a thin naming layer over {!Keyspace}: object number
    [i] (creation order) is logical key [i] of a keyspace on an
    [n]-server single-domain topology, so objects share the fleet's
    message plane and their gossip and relays coalesce across objects.
    Every object's instance exists from creation, so machine faults and
    storage accounting cover it before its first operation. *)

module Params = Protocol.Params
module History = Protocol.History

type t

val create :
  engine:Messages.t Simnet.Engine.t ->
  params:Params.t ->
  objects:string list ->
  ?value_len:int ->
  num_writers:int ->
  num_readers:int ->
  unit ->
  t
[@@lint.allow "O1: ?value_len — test_store's \"total storage sums the \
               registers\" sizes its values"]
(** One register per (distinct) name in [objects], all with the given
    parameters. Each object starts holding the empty value. Every
    object's fragment stores are checksummed ({!Disk}).
    @raise Invalid_argument on an empty or duplicated object list. *)

val write :
  t -> obj:string -> writer:int -> at:float -> ?on_done:(unit -> unit) ->
  bytes -> unit
[@@lint.allow "O1: ?on_done — test_chaos's \"multi-object store survives \
               machine-level chaos\" chains its closed-loop writes on it"]
(** @raise Invalid_argument on an unknown object name. *)

val read :
  t -> obj:string -> reader:int -> at:float -> ?on_done:(bytes -> unit) ->
  unit -> unit

(** {1 Machine-level faults (apply to every object's processes)} *)

val crash_server : t -> coordinate:int -> at:float -> unit
val repair_server : t -> coordinate:int -> at:float -> unit

(** {1 Observation} *)

val repairing : t -> bool
[@@lint.allow "X1: state probe — the store chaos test gates crashes on it"]
(** [true] while any server of any object is mid-repair. *)

val total_storage : t -> float
[@@lint.allow "X1: state probe — the store cost test reads the summed \
               storage"]
(** Sum over objects of each register's worst-case total storage, in
    value units: [#objects * n/(n-f-2e)] when values share a size. *)

val check_atomicity : t -> (unit, string * Protocol.Atomicity.violation) result
(** Run the Lemma 2.1 checker on every object's history; the error names
    the first offending object. *)

val all_complete : t -> bool
[@@lint.allow "X1: state probe — store tests check liveness through it"]
