(** The SODA writer automaton (Fig. 3 of the paper).

    A write proceeds in two phases: {e write-get} queries all servers for
    their stored tags and picks the maximum among a majority of replies;
    {e write-put} creates the new tag [(z_max + 1, w)] and disperses the
    value with MD-VALUE, completing once [k] servers have acknowledged
    their coded element. The automaton handles one operation at a time
    (well-formedness); operations are recorded in the deployment's
    {!Protocol.History}. *)

type t

val create : Config.t -> t

val invoke :
  t -> Messages.t Simnet.Engine.context -> value:bytes ->
  ?on_done:(unit -> unit) -> unit -> int
(** Start a write; returns the operation id under which it is recorded.
    [on_done] fires at completion (k acknowledgements).
    @raise Invalid_argument if an operation is already in flight. *)

val handler : t -> Messages.t Simnet.Engine.context -> src:int -> Messages.t -> unit
