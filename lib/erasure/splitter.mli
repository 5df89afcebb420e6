(** Byte-level framing shared by all codecs.

    A value of arbitrary length is framed as a 4-byte big-endian length
    prefix followed by the payload, padded with zeros to a multiple of
    [k]. A codec with [k] message columns of [bps]-byte symbols frames
    with [~k:(bps * k)] and reads the framed string column-major: cut
    into [k] equal slices, slice [j] (bytes [j*L .. (j+1)*L - 1], [L]
    the slice length) is message column [j], and stripe [s] takes
    symbol [s] of every column, so that each fragment holds one symbol
    of every stripe and message fragment [n-k+j] is column [j]
    verbatim. *)

val frame : k:int -> bytes -> bytes
[@@lint.allow "X1: test oracle — the layout tests slice the framed string \
               into the columns the codec must produce"]
(** [frame ~k v] prepends the length header and zero-pads to a multiple
    of [k]. The result is non-empty even for an empty [v].
    @raise Invalid_argument if [k <= 0] or the value exceeds 2{^31}-1
    bytes. *)

val unframe : bytes -> bytes
(** Inverse of {!frame}; validates the header.
    @raise Invalid_argument on a malformed frame. *)

val columns : k:int -> bps:int -> bytes -> Bytes.t array
(** [columns ~k ~bps v] is [frame ~k:(bps * k) v] cut into its [k]
    message columns, each a fresh buffer of [bps] times
    [fragment_size ~k:(bps * k)] bytes. The header and the value are
    written straight into the columns (the header straddles several
    of them when a column is shorter than 4 bytes); the framed string
    itself is never built.
    @raise Invalid_argument if [k <= 0], [bps <= 0] or the value
    exceeds 2{^31}-1 bytes. *)

val extract :
  k:int ->
  bps:int ->
  bufs:Bytes.t array ->
  offs:int array ->
  col_len:int ->
  bytes
(** [extract ~k ~bps ~bufs ~offs ~col_len] reads a framed value directly
    out of [k] decoded column views (column [j] is the [col_len]-byte
    range of [bufs.(j)] at [offs.(j)], a whole number of [bps]-byte
    symbols): parses and validates the length header, then copies the
    value bytes into a fresh buffer with one blit per column they
    touch. Equivalent to [unframe] of the concatenated columns without
    materializing them.
    @raise Invalid_argument on a malformed frame or ragged views. *)

val fragment_size : k:int -> value_len:int -> int
(** Number of stripes (= fragment length in bytes) used to encode a value
    of [value_len] bytes with message dimension [k]. *)
