(** The LDR algorithm (Fan & Lynch, "Efficient replication of large data
    objects") — the other replication-based baseline the paper cites.

    LDR splits the server role in two: {e directories} (metadata only:
    the highest known tag and the set of replicas holding its value) and
    {e replicas} (full values). Quorums are majorities of the [2f+1]
    directories; values are written to all [2f+1] replicas but only
    [f+1] acknowledgements are awaited, and the ackers are recorded in
    the directories as the value's {e locations}.

    - Write: query directories (majority) for the max tag; store
      [(tag, value)] at replicas (await [f+1], remember who); update
      directories with [(tag, locations)] (majority).
    - Read: query directories (majority) for the max [(tag, locations)];
      fetch from the [f+1] locations (at least one is alive, and replica
      tags are monotonic so every reply carries a tag at least as large);
      write the winning [(tag, locations)] metadata back to a majority of
      directories; return.

    Costs relative to a 1-unit value: storage [2f+1] (replicas only —
    directories store metadata), write [2f+1], read at most [f+1]
    (replies from the locations). LDR's point versus ABD is that only
    replicas pay for the data and reads touch [f+1 <= majority] of them;
    SODA's Table I point stands against both: replication pays Θ(f)
    storage where SODA pays [n/(n-f) < 2]. *)

module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Tag = Protocol.Tag

module Messages : sig
  type t =
    | Dir_query of { op : int }
    | Dir_query_reply of { op : int; tag : Tag.t; locations : int list }
    | Dir_update of { op : int; tag : Tag.t; locations : int list }
    | Dir_update_ack of { op : int; tag : Tag.t }
    | Store of { op : int; tag : Tag.t; value : bytes }
    | Store_ack of { op : int; tag : Tag.t }
    | Fetch of { rid : int; tag : Tag.t }
    | Fetch_reply of { rid : int; tag : Tag.t; value : bytes }

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
(** Registers [2f+1] directory processes, [2f+1] replica processes and
    the clients. Only [f] of {e each} group may crash (the two groups
    fail independently); [Params.n] is ignored except through [f].
    Server coordinates number the directories [0 .. 2f] and then the
    replicas [2f+1 .. 4f+1], in pid order. *)

include Register.S with type t := t
