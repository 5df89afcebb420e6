(** Version tags.

    A tag is a pair [(z, w)] of a sequence number and a writer identifier
    (Section IV of the paper). Tags are totally ordered lexicographically
    — first by [z], then by [w] — and every write operation creates a tag
    strictly greater than any tag it observed, with distinct writers
    breaking ties by id; hence all writes carry distinct tags. *)

type t = { z : int; w : int }

val initial : t
(** [t0], the tag of the initial object value: [z = 0] with a writer id
    smaller than any real writer's ([-1]). *)

val make : z:int -> w:int -> t
(** @raise Invalid_argument if [z < 0]. *)

val next : t -> w:int -> t
(** [next t ~w] is the tag a writer [w] creates after observing maximum
    tag [t]: [(t.z + 1, w)]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val max : t -> t -> t

val pack : t -> int
(** An injective encoding of a tag as a non-negative [int], ordered like
    {!compare}; an O(1) key for int-keyed tables on hot paths. Valid for
    [z] up to 2{^41} - 1 and writer ids up to 2{^20} - 1 (the simulator's
    pid cap). @raise Invalid_argument outside that range. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
