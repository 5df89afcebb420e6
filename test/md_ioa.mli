(** An executable rendering of the MD-VALUE IO Automata (Figs. 1 and 2
    of the paper), at the IOA's own step granularity.

    The production SODA path ({!Soda.Server}) folds the primitive's relay
    logic into atomic message handlers — sound, because the IOA performs
    all of a dispersal's relays before its local delivery, and a crash
    between the relays only truncates a suffix. This module instead
    implements the automata {e literally}: the sender's [send_buff] and
    each server's per-dispersal [outQueue], [status] and [content] maps
    are explicit state, and {e every} output action ([send],
    [md-value-deliver], [md-value-send-ack]) executes as its own
    simulation step, so crash events can interleave between any two
    actions exactly as IOA semantics allow.

    It exists to validate the primitive itself:
    - {e Theorem 3.1} (validity and uniformity): every delivered element
      is the coded element of the dispersed value, and if any server
      delivers, every non-crashed server eventually does — even when the
      sender and up to [f] servers crash at arbitrary steps.
    - {e Theorem 3.2} (no state bloat): once a dispersal is delivered at
      a server, none of that automaton's state variables retain the
      value or any coded element — observable here through
      {!server_retained_payloads}. *)

[@@@lint.allow "X1: test model — the literal MD-VALUE automata that \
                test_md_ioa checks Theorems 3.1 and 3.2 on; no production \
                path runs it"]

module Tag = Protocol.Tag
module Fragment = Erasure.Fragment

type msg
(** Wire messages of the standalone primitive ("full" and "coded"). *)

type t
(** A deployment of one MD-VALUE-SENDER and [n] MD-VALUE-SERVER
    automata. *)

type delivery = { server : int; tag : Tag.t; fragment : Fragment.t }

val deploy :
  engine:msg Simnet.Engine.t ->
  params:Protocol.Params.t ->
  ?step:float ->
  unit ->
  t
(** [step] (default 0.5) is the simulated time between an automaton's
    successive output actions — the interleaving window for crashes. *)

val send : t -> at:float -> tag:Tag.t -> value:bytes -> unit
(** Schedule an [md-value-send(t, v)] input action at the sender. *)

val crash_sender : t -> at:float -> unit
val crash_server : t -> index:int -> at:float -> unit

(** {1 Observations (after running the engine)} *)

val deliveries : t -> delivery list
(** All [md-value-deliver] output actions, in order. *)

val acked : t -> Tag.t list
(** Tags whose [md-value-send-ack] fired at the sender. *)

val server_retained_payloads : t -> index:int -> int
(** Bytes of value/coded-element payload still referenced by the
    server's [content] map and [outQueue]s — Theorem 3.2 says this is 0
    for every delivered dispersal once the system quiesces. *)

val sender_retained_payloads : t -> int
(** Same for the sender's [send_buff]. *)
