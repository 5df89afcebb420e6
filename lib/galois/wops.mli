(** Word-wide xor sweep behind the codec's unit-coefficient terms.

    {!xor_into} adds one byte range into another 8 bytes per 64-bit
    load (see DESIGN.md, "Word-sliced kernels"). It validates the full
    byte ranges at entry. Setting [SODA_DEBUG=1] in the environment
    additionally re-checks every interior block access (for soak runs;
    see DESIGN.md). [src] and [dst] may alias only as the {e same}
    buffer with [soff = doff]; partially overlapping ranges are
    unsupported. *)

val xor_into : src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** [xor_into ~src ~soff ~dst ~doff ~len]:
    [dst.[doff+i] <- dst.[doff+i] xor src.[soff+i]] for [i] in
    [0, len), 8 bytes at a time. Any [len >= 0].
    @raise Invalid_argument if either range exceeds its buffer. *)
