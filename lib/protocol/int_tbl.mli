(** Open-addressing hash tables keyed by non-negative ints.

    Built for the simulator's hot paths (MD deduplication, the servers'
    H sets): linear probing over flat arrays — no per-insert allocation,
    no generic-hashing C call. Slots are the top bits of a Fibonacci
    multiply, so keys differing only in their high bits (mids, packed
    tags) do not cluster. Keys must be [>= 0] (packed tags, mids
    and coordinates are); individual removal is not supported — delete
    wholesale with [reset]. *)

module Set : sig
  type t

  val create : int -> t
  (** [create capacity] sizes the table for [capacity] keys without
      growing. *)

  val add : t -> int -> bool
  (** Insert; [true] iff the key was not already present.
      @raise Invalid_argument on a negative key. *)

  val mem : t -> int -> bool
  val length : t -> int

  val reset : t -> unit
  (** Remove every key, retaining capacity. *)

  val iter : (int -> unit) -> t -> unit
  (** In slot order, which is unrelated to key order. *)

  val max_probe : t -> int
  (** Diagnostic: the most slots any present key's lookup inspects
      (1 when every key sits in its home slot, 0 when empty). *)
end

module Map : sig
  type 'a t

  val create : dummy:'a -> int -> 'a t
  (** [dummy] pads unused value slots; it is never returned for a
      present key. *)

  val replace : 'a t -> int -> 'a -> unit
  (** Insert or overwrite. @raise Invalid_argument on a negative key. *)

  val find_opt : 'a t -> int -> 'a option

  val find : 'a t -> int -> default:'a -> 'a
  (** [find t key ~default] is the value bound to [key], or [default]
      when absent — unlike {!find_opt}, allocation-free. *)

  val length : 'a t -> int
  val reset : 'a t -> unit
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** In slot order, which is unrelated to key order. *)

  val max_probe : 'a t -> int
  (** As {!Set.max_probe}. *)
end
