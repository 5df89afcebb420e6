(** The SODA / SODA{_err} reader automaton (Fig. 4 / Fig. 6).

    A read proceeds in three phases: {e read-get} polls all servers and
    takes the maximum tag [tr] of a majority of replies; {e read-value}
    registers [(r, tr)] at every server with MD-META and accumulates
    relayed coded elements until it holds [decode_threshold] elements of
    a single tag ([k] for SODA, [k + 2e] for SODA{_err}, in which case
    decoding also corrects up to [e] corrupted elements); {e
    read-complete} disperses READ-COMPLETE so servers unregister it, and
    returns the decoded value. *)

type t

val create : Config.t -> t

val invoke :
  t -> Messages.t Simnet.Engine.context -> ?on_done:(bytes -> unit) ->
  unit -> int
(** Start a read; returns the operation id.
    @raise Invalid_argument if an operation is already in flight. *)

val handler : t -> Messages.t Simnet.Engine.context -> src:int -> Messages.t -> unit
