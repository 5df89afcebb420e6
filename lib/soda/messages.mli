(** Wire messages of the SODA / SODA{_err} protocol.

    Three families, mirroring Section IV of the paper:
    - client phase messages ([WRITE-GET], [READ-GET] and their replies,
      write acknowledgements) — metadata only;
    - the message-disperse traffic ([Md_full], [Md_coded] for MD-VALUE
      and [Md_meta] for MD-META);
    - server-to-reader relays of coded elements ([Relay]) — the data
      traffic that makes up the read cost;
    - the repair extension's traffic ([Repair_get] / [Repair_reply]):
      a restored server fetching the coded elements it needs to rebuild
      its own (see {!Server.begin_repair}).

    Every MD message carries a {!mid} (origin process and per-origin
    sequence number) used by servers to deliver each dispersal exactly
    once. *)

module Tag = Protocol.Tag
module Fragment = Erasure.Fragment

type mid = private int
(** Origin process and per-origin sequence number, packed into one
    immediate (origin in the low 20 bits — the simulator's pid cap) so
    the servers' deduplication tables key on a plain [int]. *)

val mid : origin:int -> seq:int -> mid
val mid_origin : mid -> int
val mid_seq : mid -> int

(** Payloads delivered by the MD-META primitive. [rid] is the unique id
    of the read operation (the paper's reader id extended with a
    per-operation counter, cf. "Additional notes on SODA" (3)). *)
type meta =
  | Read_value of { rid : int; reader : int; tr : Tag.t }
  | Read_complete of { rid : int; reader : int; tr : Tag.t }
  | Read_disperse of { tag : Tag.t; server_index : int; rid : int }

type gossip_entry = { tag : Tag.t; server_index : int; rid : int }
(** One deferred READ-DISPERSE announcement. Under the coalesced plane
    ({!Config.batched_plane}) a {!Plane} accumulates these in a
    per-destination outbox instead of broadcasting each as a standalone
    MD-META round, and ships them either piggybacked on the next
    server-to-server message ([Envelope]) or in a standalone [Gossip]
    once the oldest live entry reaches the staleness bound. Applying an entry is the same
    monotone [h]-set insertion as a standalone READ-DISPERSE, so
    duplicates (retransmissions included) are harmless. *)

type keyed_entry = { ke_key : int; ke_entry : gossip_entry }
(** A gossip entry qualified by the logical key it belongs to. The
    {!Plane} of a {!Keyspace} accumulates these across every key
    instance a physical server hosts, so one [Keyed_gossip] (or one
    [Keyed_envelope] piggyback) flushes the deferred READ-DISPERSE
    traffic of many keys to a peer at once. *)

type t =
  | Write_get of { op : int }
  | Write_get_reply of { op : int; tag : Tag.t }
  | Write_ack of { op : int; tag : Tag.t }
  | Read_get of { rid : int }
  | Read_get_reply of { rid : int; tag : Tag.t }
  | Relay of { rid : int; tag : Tag.t; fragment : Fragment.t }
  | Md_full of { mid : mid; op : int; tag : Tag.t; value : bytes }
  | Md_coded of { mid : mid; op : int; tag : Tag.t; fragment : Fragment.t }
  | Md_meta of { mid : mid; meta : meta }
  | Repair_get of { op : int }
  | Repair_reply of { op : int; tag : Tag.t; fragment : Fragment.t }
  | Gossip of { entries : gossip_entry list }
      (** Standalone flush of a bare deployment's gossip outbox
          (bounded-staleness timer). *)
  | Envelope of { entries : gossip_entry list; msg : t }
      (** [msg] with the destination's pending gossip piggybacked on it.
          Never nested: [msg] is itself neither [Envelope] nor [Gossip]. *)
  | Relay_batch of { relays : t list }
      (** Two or more [Relay]s to one reader process within the relay
          window, oldest first, framed as a single message (one header,
          many zero-copy fragment views). They may belong to different
          reads of that process. *)
  | Heartbeat of { coordinate : int }
      (** Failure-detector liveness beacon, broadcast server-to-server
          every 10.0 time units (see {!Config.healing}).
          Pure metadata. *)
  | Suspect_vote of { target : int; voter : int }
      (** [voter]'s declaration that coordinate [target] has been silent
          past the suspicion timeout. A server that collects [f + 1]
          distinct voters (itself included) for [target] triggers the
          deployment's auto-repair hook. Pure metadata. *)
  | Keyed of { key : int; msg : t }
      (** [msg] of logical key [key]'s SODA instance, travelling the
          shared plane of a {!Keyspace}. The plane handler unwraps it
          and dispatches to that key's per-server automaton (or to the
          client's per-key lane). Never nested. *)
  | Keyed_gossip of { kentries : keyed_entry list }
      (** Standalone cross-key flush of a shared-plane server's gossip
          outbox (bounded-staleness timer), covering every key it hosts. *)
  | Keyed_envelope of { kentries : keyed_entry list; key : int; msg : t }
      (** [Keyed { key; msg }] with the destination server's pending
          cross-key gossip piggybacked on it. [msg] is the inner
          (un-keyed) protocol message; never nested. *)
  | Keyed_batch of { kitems : (int * t) list }
      (** Relays to one client process, possibly of different keys,
          framed as a single message — the keyed form of
          [Relay_batch], produced by the same per-destination relay
          window. *)

val data_bytes : t -> int
(** Bytes of {e data} (value or coded element) the message carries; zero
    for pure metadata. This is what {!Cost} charges. *)

val logical_units : t -> int
(** How many standalone messages the frame replaces: 1 for a plain
    message, the entry count for gossip, entries + inner for envelopes,
    the item sum for batches. Pass as [Engine.create ~weigh] to measure
    a plane's coalescing factor via [Engine.payload_units]. *)

val pp : Format.formatter -> t -> unit
