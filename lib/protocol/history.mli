(** Operation histories.

    A history records the externally visible events of an execution: for
    every read/write operation, its invocation time, its response time
    (absent if the client crashed or the execution was cut short), the
    tag the protocol associated with it and the value written/returned.
    Histories are what the {!Atomicity} checker and the cost/latency
    reports consume. Operation ids are dense integers assigned at
    invocation, so they double as array indices in analysis code. *)

type kind = Write | Read

type record = {
  op : int;
  client : int;
  kind : kind;
  invoked_at : float;
  mutable responded_at : float option;
  mutable tag : Tag.t option;
      (** For a write: the tag it created. For a read: the tag whose value
          it returned. *)
  mutable value : bytes option
      (** For a write: the value written. For a read: the value returned. *)
}

type t

val create : unit -> t

val invoke : t -> client:int -> kind:kind -> at:float -> int
(** Record an invocation; returns the fresh operation id. *)

val set_tag : t -> op:int -> Tag.t -> unit
val set_value : t -> op:int -> bytes -> unit

val respond : t -> op:int -> at:float -> unit
(** Mark the operation complete.
    @raise Invalid_argument if already complete or time precedes the
    invocation. *)

val records : t -> record list
(** All records in invocation order. *)

val size : t -> int

val all_complete : t -> bool
(** True when every invoked operation has responded — the liveness
    criterion for executions whose clients are all non-faulty. *)

val pp : Format.formatter -> t -> unit
