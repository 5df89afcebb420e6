(** Coded fragments.

    A fragment is one server's share of an encoded value: the fragment
    [index] identifies which of the [n] code coordinates it carries, and
    its payload holds one code symbol per stripe. A message fragment's
    payload is one contiguous slice of the framed value ({!Splitter}).

    Encode allocates one payload buffer per fragment, and the simulated
    network and server stores carry the fragment itself, so no payload
    bytes are copied between encode and decode (DESIGN.md, "Word-sliced
    kernels & zero-copy framing"). *)

type t

val make : index:int -> data:bytes -> t
(** [make ~index ~data] is a fragment whose payload is all of [data]
    (the buffer is used as-is, not copied).
    @raise Invalid_argument on a negative index. *)

val index : t -> int

val size : t -> int
(** Length of the payload in bytes. *)

val data : t -> bytes
(** The payload buffer itself, not a copy; callers must not mutate
    it. *)

val corrupt : t -> seed:int -> t
(** [corrupt f ~seed] returns a fragment at the same index whose payload
    is deterministically garbled (every byte XORed with a non-zero
    pseudo-random mask derived from [seed]), guaranteed to differ from
    the original in every byte. The result owns a fresh buffer. Used by
    fault injection to model silent disk read errors. *)

val pp : Format.formatter -> t -> unit
