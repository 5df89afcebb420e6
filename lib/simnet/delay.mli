(** Message-delay models for the simulated network.

    The paper's system model assumes reliable asynchronous channels:
    every message is eventually delivered, with no bound and no ordering
    guarantee. A delay model is a distribution from which each message's
    transit time is drawn independently; random delays exercise
    reordering, while {!constant} realizes the synchronous-bound model
    used by the latency analysis (Theorem 5.7). *)

type t

val constant : float -> t
(** Every message takes exactly the given time. Models the Δ-bounded
    network of the latency analysis. *)

val uniform : lo:float -> hi:float -> t
(** Uniform in [lo, hi].
    @raise Invalid_argument if [lo < 0] or [hi < lo]. *)

val exponential : mean:float -> cap:float -> t
(** Exponential with the given mean, truncated at [cap] (reliability of
    the channel requires finite delays). Heavy reordering. *)

val per_link : (src:int -> dst:int -> t) -> t
(** Delay chosen by a per-directed-link model, e.g. to simulate one slow
    server. The inner models are consulted on every message. *)

val draw : t -> Rng.t -> src:int -> dst:int -> float
(** Sample a transit time; always at least 1e-9, so a message is never
    delivered at the instant it is sent. *)

val upper_bound : t -> float option
(** A bound Δ such that every draw is <= Δ, when the model has one
    ([per_link] returns [None]). Used by latency assertions. *)
