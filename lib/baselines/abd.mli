(** The ABD algorithm (Attiya, Bar-Noy, Dolev), multi-writer multi-reader
    variant — the replication baseline of Table I.

    Every server stores a full [(tag, value)] copy; quorums are simple
    majorities. A write queries a majority for tags, forms a higher tag
    and stores the full value at a majority. A read queries a majority
    for [(tag, value)] pairs, picks the largest, and — only when the
    replies disagree, an optimization that keeps the quiescent read cost
    at [n] as in Table I — writes the winning pair back to a majority
    before returning it.

    Costs (in value units): write [n], read [n] quiescent / up to [2n]
    under concurrency, storage [n]. *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Tag = Protocol.Tag

module Messages : sig
  type t =
    | Query_tag of { op : int }  (** write phase 1 (metadata) *)
    | Query_tag_reply of { op : int; tag : Tag.t }
    | Query_full of { rid : int }  (** read phase 1 *)
    | Query_full_reply of { rid : int; tag : Tag.t; value : bytes }
    | Store of { op : int; tag : Tag.t; value : bytes }
        (** phase 2 of writes, write-back of reads *)
    | Store_ack of { op : int; tag : Tag.t }

  val data_bytes : t -> int
end

type t

val deploy :
  engine:Messages.t Simnet.Engine.t ->
  params:Params.t ->
  ?initial_value:bytes ->
  ?value_len:int ->
  num_writers:int ->
  num_readers:int ->
  unit ->
  t

include Register.S with type t := t
