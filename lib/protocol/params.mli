(** System sizing parameters shared by all protocols.

    [n] servers, of which at most [f] may crash, and (for SODA{_err}) at
    most [e] may silently return corrupted coded elements from local
    storage during a read. The code dimension each algorithm uses follows
    from these: SODA picks [k = n - f - 2e] (with [e = 0] for plain
    SODA), CAS/CASGC picks [k = n - 2f], ABD replicates ([k = 1]). *)

type t = private { n : int; f : int; e : int }

val make : n:int -> f:int -> ?e:int -> unit -> t
(** @raise Invalid_argument unless [n >= 1], [0 <= f <= (n-1)/2], [e >= 0]
    and [n - f - 2e >= 1]. *)

val n : t -> int
val f : t -> int
val e : t -> int

val k_soda : t -> int
(** Code dimension used by SODA / SODA{_err}: [n - f - 2e]. *)

val k_cas : t -> int
(** Code dimension used by CAS / CASGC: [n - 2f] (requires [f <= (n-1)/2],
    guaranteed by {!make}). *)

val majority : t -> int
(** Size of a majority quorum: [n/2 + 1]. *)

val cas_quorum : t -> int
(** CAS quorum size: [ceil((n + k_cas) / 2)]. *)

val fmax : n:int -> int
(** The largest tolerable [f] for an [n]-server system: [(n-1)/2]. *)

