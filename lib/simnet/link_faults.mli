(** Per-link adversarial fault plane.

    The paper's system model (Section II) assumes reliable point-to-point
    channels; real networks lose messages and partition. This module
    holds the adversarial state the engine consults on every send: one
    drop probability shared by every link, and blackholed directed links
    (partitions). Partitions are mutated only from inside the simulation
    (the engine schedules control events that call {!cut_links} /
    {!heal_links} at their activation times), so fault windows are
    seed-deterministic and totally ordered with every other event.

    A fresh fault plane is {e trivial}: no link ever drops or
    blackholes, and the engine skips the plane entirely on its send hot
    path (one boolean load). Any configuration call arms it for the rest
    of the simulation, even if every fault is later healed. *)

type t

val create : unit -> t
(** A trivial fault plane. *)

val armed : t -> bool
(** Whether any fault was ever configured. While [false], sends behave
    bit-identically to an engine without a fault plane. *)

val set_default_drop : t -> float -> unit
(** Drop probability applied to every link.
    @raise Invalid_argument outside [0, 1]. *)

val drop_p : t -> float

(** {1 Partitions (driven by engine control events)} *)

val cut_links : t -> (int * int) list -> unit
(** Blackhole each [(src, dst)] link: every message entering it while cut
    is lost. Cuts nest — a link cut by two overlapping partitions heals
    only when both heal. *)

val heal_links : t -> (int * int) list -> unit
(** Undo one {!cut_links} layer per link. Healing a link that is not cut
    is ignored (a harness may heal a partition that was never armed). *)

val isolation : isolated:int list -> among:int array -> (int * int) list
(** The link-set that cuts the pids [isolated] off from every other pid
    of [among], both directions: for each isolated pid in ascending
    order, and each other pid in [among]'s order, [(inner, outer)] then
    [(outer, inner)]. Deterministic, so a partition and its heal name the
    same links. *)

val partitioned : t -> src:int -> dst:int -> bool
