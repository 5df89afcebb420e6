(** Byte-level framing shared by all codecs.

    A value of arbitrary length is framed as a 4-byte big-endian length
    prefix followed by the payload, padded with zeros to a multiple of
    [k]. The framed buffer is processed stripe by stripe: stripe [s]
    consists of bytes [s*k .. s*k + k - 1], and each stripe independently
    becomes one symbol of every fragment, so that fragment [i] holds
    symbol [i] of every stripe. *)

val frame : k:int -> bytes -> bytes
(** [frame ~k v] prepends the length header and zero-pads to a multiple
    of [k]. The result is non-empty even for an empty [v].
    @raise Invalid_argument if [k <= 0] or the value exceeds 2{^31}-1
    bytes. *)

val unframe : bytes -> bytes
(** Inverse of {!frame}; validates the header.
    @raise Invalid_argument on a malformed frame. *)

val extract :
  k:int ->
  bps:int ->
  bufs:Bytes.t array ->
  offs:int array ->
  col_len:int ->
  bytes
(** [extract ~k ~bps ~bufs ~offs ~col_len] reads a framed value directly
    out of [k] decoded column views (column [j] is the [col_len]-byte
    range of [bufs.(j)] at [offs.(j)]; see {!Kernel.merge_cols_sub}):
    parses and validates the length header, then interleaves exactly the
    value bytes into a fresh buffer. Equivalent to
    [unframe (merge_cols cols)] without materializing the framed buffer.
    @raise Invalid_argument on a malformed frame or ragged views. *)

val fragment_size : k:int -> value_len:int -> int
(** Number of stripes (= fragment length in bytes) used to encode a value
    of [value_len] bytes with message dimension [k]. *)
