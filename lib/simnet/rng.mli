(** Deterministic pseudo-random number generation.

    Every simulation draws all randomness from one of these generators so
    that an execution is a pure function of its seed: any failing test can
    be replayed exactly by re-running with the seed it printed. The
    generator is a splitmix mixer on the native 63-bit int — fast,
    allocation-free (the state is an immediate), and cheap to split into
    independent streams. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val split : t -> t
(** A new generator statistically independent of the parent; both the
    parent and the child advance deterministically afterwards. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (inverse-CDF method). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle driven by this generator. *)

