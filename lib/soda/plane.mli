(** The batched message plane of one group of server processes: the one
    implementation of gossip coalescing and relay batching (see "Batched
    message plane" in DESIGN.md).

    For every server process of the group it keeps:
    - a gossip outbox per destination server: deferred READ-DISPERSE
      entries ride on the next server-to-server send ({!send}) and are
      flushed as a standalone frame once the oldest live entry has
      waited {!Config.gossip_staleness};
    - a relay box per destination client: relays to one reader process
      within the relay window leave as one frame.

    The plane knows nothing about keys: its caller supplies the
    {!frames}, bare for a {!Deployment} and keyed for a {!Keyspace}, and
    installs the plane as its configurations' {!Config.wire}. Boxes are
    sized by the group's own processes, so many small groups can share
    one engine. *)

type ('e, 'r) frames = {
  live : server:int -> 'e -> bool;
      (** [false] once the entry's read has completed at the given
          server slot: a dead entry is dropped, not sent. *)
  direct : 'r -> Messages.t;  (** one message, nothing piggybacked *)
  envelope : 'e list -> 'r -> Messages.t;
      (** one server-to-server message carrying pending gossip *)
  gossip : 'e list -> Messages.t;  (** a standalone staleness flush *)
  batch : 'r list -> Messages.t
      (** two or more relays to one client, oldest first *)
}
(** How a caller frames what the plane ships. ['e] is a gossip entry,
    ['r] one protocol message as the caller addresses it. *)

type ('e, 'r) t

val create :
  frames:('e, 'r) frames ->
  servers:int array ->
  clients:int array ->
  window:float option ->
  ('e, 'r) t
(** A plane over the given server and client pids. [window] is the
    relay window ({!Config.relay_window}); [None] sends every relay at
    once.
    @raise Invalid_argument if [servers] is empty or the pids of
    [servers] then [clients] are not contiguous and ascending. *)

val is_relay : Messages.t -> bool
(** A server-to-reader [Relay]: the only message the relay window holds
    back. *)

val send :
  ('e, 'r) t -> Messages.t Simnet.Engine.context -> dst:int -> relay:bool ->
  'r -> unit
(** Send one message from the calling process. From a server of the
    group to a server, the destination's pending gossip rides along;
    from a server to a client with [relay] set and a window open, the
    message waits in the client's relay box; anything else goes out at
    once. *)

val gossip :
  ('e, 'r) t -> Messages.t Simnet.Engine.context -> peers:int array -> 'e -> unit
(** Queue one entry, from the calling server process, for every pid of
    [peers] but its own, arming each outbox's staleness flush. *)

val reset : ('e, 'r) t -> server:int -> unit
(** Empty server slot [server]'s boxes after a crash-repair: the crash
    lost them with their timers. *)
