(** Open-addressing hash tables keyed by non-negative ints.

    Built for the simulator's hot paths (MD deduplication, the servers'
    H sets): linear probing over flat arrays — no per-insert allocation,
    no generic-hashing C call. Slots are the top bits of a Fibonacci
    multiply, so keys differing only in their high bits (mids, packed
    tags) do not cluster. Stored keys must be [>= 0] (packed tags, mids,
    rids, coordinates and keyspace keys are); [mem], [find], [find_opt]
    and [remove] treat every negative key as absent.

    Sizing is lazy: a table created at capacity 0 holds no slots at all
    (one small record) and takes its first 4 on the first insert; it
    hands them back whenever {!Set.remove} or {!Set.reset} empties it.
    Removal is backward-shift deletion, so it leaves no tombstones and
    lookups never slow down after deletes. *)

module Set : sig
  type t

  val create : int -> t
  (** [create capacity] sizes the table for [capacity] keys without
      growing; [create 0] allocates no slots until the first {!add}. *)

  val add : t -> int -> bool
  (** Insert; [true] iff the key was not already present.
      @raise Invalid_argument on a negative key. *)

  val mem : t -> int -> bool
  val length : t -> int

  val remove : t -> int -> unit
  (** Delete the key if present; removing the last key releases the
      slots. *)

  val reset : t -> unit
  (** Remove every key and release the slots, as at [create 0]. *)

  val iter : (int -> unit) -> t -> unit
  [@@lint.allow "X1: state probe — the model-agreement tests enumerate \
                 the keys through it"]
  (** In slot order, which is unrelated to key order. *)

  val max_probe : t -> int
  [@@lint.allow "X1: state probe — tests bound the probe lengths"]
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

  val mem : 'a t -> int -> bool
  val find_opt : 'a t -> int -> 'a option

  val find : 'a t -> int -> default:'a -> 'a
  (** [find t key ~default] is the value bound to [key], or [default]
      when absent — unlike {!find_opt}, allocation-free. *)

  val remove : 'a t -> int -> unit
  (** As {!Set.remove}; the value slot reverts to [dummy], so the table
      no longer keeps the removed value alive. *)

  val reset : 'a t -> unit
  (** As {!Set.reset}. *)

  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** In slot order, which is unrelated to key order. *)

  val max_probe : 'a t -> int
  [@@lint.allow "X1: state probe — tests bound the probe lengths"]
  (** As {!Set.max_probe}. *)
end
