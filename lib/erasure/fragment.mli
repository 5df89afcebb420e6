(** Coded fragments.

    A fragment is one server's share of an encoded value: the fragment
    [index] identifies which of the [n] code coordinates it carries, and
    its payload holds one code symbol per stripe.

    Since the zero-copy rework (DESIGN.md, "Word-sliced kernels &
    zero-copy framing") a fragment is a {e view} — [size] payload bytes
    at offset [off] within a backing buffer [buf]. Codecs encode a whole
    codeword into one backing buffer and return [n] views into it, and
    the simulated network and server stores carry the views themselves,
    so no payload bytes are copied between encode and decode. Consumers
    on the hot path read [buf]/[off]/[size] directly; {!data} remains
    for convenience and copies only when the view is a proper slice. *)

type t

val make : index:int -> data:bytes -> t
(** [make ~index ~data] is a fragment whose payload is all of [data]
    (the buffer is used as-is, not copied).
    @raise Invalid_argument on a negative index. *)

val index : t -> int

val buf : t -> bytes
(** The backing buffer. Payload bytes are [off t, off t + size t);
    callers must not mutate them. *)

val off : t -> int
(** Payload offset within {!buf}. *)

val size : t -> int
(** Length of the payload in bytes. *)

val data : t -> bytes
(** The payload as a standalone buffer. Returns the backing buffer
    itself when the view covers all of it; otherwise allocates a copy —
    avoid on hot paths, read through {!buf}/{!off} instead. *)

val corrupt : t -> seed:int -> t
(** [corrupt f ~seed] returns a fragment at the same index whose payload
    is deterministically garbled (every byte XORed with a non-zero
    pseudo-random mask derived from [seed]), guaranteed to differ from
    the original in every byte. The result owns a fresh buffer. Used by
    fault injection to model silent disk read errors. *)

val pp : Format.formatter -> t -> unit
