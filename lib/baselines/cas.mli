(** The CAS and CASGC algorithms (Cadambe, Lynch, Médard, Musial — "A
    coded shared atomic memory algorithm for message passing
    architectures"), the erasure-coded comparators of Table I.

    Both use an [n, k] MDS code with [k = n - 2f] and quorums of size
    [⌈(n+k)/2⌉ = n - f]; any two quorums intersect in at least [k]
    servers, which is what makes a finalized version decodable. A write
    runs {e query} (max finalized tag) → {e pre-write} (store coded
    elements at a quorum, label [pre]) → {e finalize} (label [fin] at a
    quorum). A read runs {e query} → {e finalize}: servers respond to the
    read's finalize with their coded element for the requested tag if
    they hold it, and the quorum-intersection argument guarantees at
    least [k] of them do.

    CASGC adds garbage collection with concurrency bound [delta]: a
    server keeps coded elements only for the latest [delta + 1] finalized
    tags (older elements are replaced by a [fin] label with no data),
    bounding storage at [n(delta+1)/(n-2f)] at the price of liveness
    holding only when no read overlaps more than [delta] writes; a reader
    that finds fewer than [k] elements restarts its read. CAS is the
    [gc_depth = None] instance. *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Tag = Protocol.Tag
module Fragment = Erasure.Fragment

module Messages : sig
  type t =
    | Query of { op : int }
    | Query_reply of { op : int; tag : Tag.t }
    | Pre of { op : int; tag : Tag.t; fragment : Fragment.t }
    | Pre_ack of { op : int; tag : Tag.t }
    | Fin of { op : int; tag : Tag.t }
    | Fin_ack of { op : int; tag : Tag.t }
    | Read_fin of { rid : int; tag : Tag.t }
    | Read_fin_reply of { rid : int; tag : Tag.t; fragment : Fragment.t option }

  val data_bytes : t -> int
end

type t

val deploy :
  engine:Messages.t Simnet.Engine.t ->
  params:Params.t ->
  ?gc_depth:int ->
  ?initial_value:bytes ->
  ?value_len:int ->
  num_writers:int ->
  num_readers:int ->
  unit ->
  t
(** [gc_depth] is CASGC's δ; omit it for plain CAS (no garbage
    collection). *)

include Register.S with type t := t

val probe : t -> Probe.t
(** Not recording until a caller {!Probe.record}s it. *)

val read_restarts : t -> int
(** Number of times a reader had to restart because garbage collection
    left it fewer than [k] elements (always 0 within the δ bound). *)
