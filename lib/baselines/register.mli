(** The register substrate the baselines share.

    ABD, CAS/CASGC and LDR differ in their messages, their server
    automata and their client phase logic. Everything else a
    client–server register deployment needs lives here, once:

    - reserving the process groups and wiring their handlers;
    - single-lane writer and reader clients: the busy check, the
      history [invoke]/[respond] and the [on_done] hand-off;
    - [write]/[read]/[crash_server] injection and the accessors;
    - the [?value_len] default of the cost account;
    - distinct-sender quorum counting.

    The substrate is message-agnostic: it never constructs or matches a
    protocol message, so each protocol's [[@lint.msg]] route table still
    names every sender and handler.

    Pid order is part of the contract. A protocol reserves its server
    groups with {!reserve} first; {!deploy} then reserves the writers
    ([<name>-writer0], …) and after them the readers. Every pid, and so
    every trace, cost and message count, depends only on the protocol's
    own group sizes. *)

module Engine = Simnet.Engine
module History = Protocol.History
module Cost = Protocol.Cost

(** {1 The register surface} *)

(** What every register deployment offers its callers: each baseline,
    and SODA's [Soda.Deployment], which [Harness.Runner] drives through
    this signature. *)
module type S = sig
  type t

  val write :
    t -> writer:int -> at:float -> ?on_done:(unit -> unit) -> bytes -> unit

  val read :
    t -> reader:int -> at:float -> ?on_done:(bytes -> unit) -> unit -> unit

  val crash_server : t -> coordinate:int -> at:float -> unit
  val server_pid : t -> coordinate:int -> int
  val history : t -> History.t
  val cost : t -> Cost.t
  val initial_value : t -> bytes
end

(** {1 Building a register} *)

type 'msg handler = 'msg Engine.context -> src:Engine.pid -> 'msg -> unit

val reserve : 'msg Engine.t -> name:string -> int -> Engine.pid array
(** [reserve engine ~name count] reserves [count] processes named
    [<name>0], [<name>1], … in that order. *)

val cost : initial_value:bytes -> int option -> Cost.t
(** A fresh cost account in units of the deployment's [?value_len],
    which defaults to the initial value's length, or 1024 when that is
    empty. *)

val broadcast : 'msg Engine.context -> Engine.pid array -> 'msg -> unit
(** Send one message to every pid, in array order. *)

(** {1 Clients} *)

type ('phase, 'result) client
(** One single-lane client: the protocol's current phase, and the
    distinct senders heard from in it. *)

val phase : ('phase, 'result) client -> 'phase option
(** [None] while idle. *)

val enter : ('phase, 'result) client -> 'phase -> unit
(** Move to the next phase, forgetting who answered the last one. *)

val vote : ('phase, 'result) client -> Engine.pid -> bool
(** Record a reply from a sender; [true] iff it is the sender's first
    in this phase. *)

val count : ('phase, 'result) client -> int
(** The distinct senders heard from in this phase. *)

val tally : ('phase, 'result) client -> Engine.pid -> int
(** {!vote}, then {!count}. *)

val respond :
  ('phase, 'result) client -> 'msg Engine.context -> op:int -> 'result -> unit
(** Complete [op] now: record the response, make the client idle, then
    hand [result] to the operation's [on_done]. *)

(** {1 Deployment} *)

type ('msg, 'config, 'wphase, 'rphase) t

val deploy :
  engine:'msg Engine.t ->
  name:string ->
  config:'config ->
  history:History.t ->
  servers:Engine.pid array ->
  server:(int -> 'msg handler) ->
  num_writers:int ->
  writer:(('wphase, unit) client -> 'msg handler) ->
  start_write:
    (('wphase, unit) client -> 'msg Engine.context -> op:int -> bytes ->
     unit) ->
  num_readers:int ->
  reader:(('rphase, bytes) client -> 'msg handler) ->
  start_read:
    (('rphase, bytes) client -> 'msg Engine.context -> op:int -> unit) ->
  ('msg, 'config, 'wphase, 'rphase) t
(** Wire [servers] (reserved by the protocol, coordinate [i] handled by
    [server i]), then reserve and wire [num_writers] writers and
    [num_readers] readers, named after the protocol's [name]. A client
    operation is invoked by the substrate and started by the protocol's
    [start_write] / [start_read], which sets the first phase and sends. *)

val write :
  ('msg, 'config, 'wphase, 'rphase) t ->
  writer:int -> at:float -> ?on_done:(unit -> unit) -> bytes -> unit
(** Schedule writer number [writer] to invoke a write at [at].
    @raise Invalid_argument when the writer is still busy at [at]. *)

val read :
  ('msg, 'config, 'wphase, 'rphase) t ->
  reader:int -> at:float -> ?on_done:(bytes -> unit) -> unit -> unit
(** As {!write}, for a read. *)

val crash_server :
  ('msg, 'config, 'wphase, 'rphase) t -> coordinate:int -> at:float -> unit

val server_pid :
  ('msg, 'config, 'wphase, 'rphase) t -> coordinate:int -> Engine.pid

val config : ('msg, 'config, 'wphase, 'rphase) t -> 'config
val history : ('msg, 'config, 'wphase, 'rphase) t -> History.t
