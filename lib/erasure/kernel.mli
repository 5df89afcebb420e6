(** Stripe transposition for the Reed-Solomon codec.

    The codec's hot path is a small matrix of field coefficients applied
    to long byte buffers, one row at a time ({!Rs_bch_gen}'s
    [apply_row] over the width's buffer sweeps, see {!Symbol.S}). The
    framed value is stripe-major and the sweeps want each code column
    contiguous: {!split_cols}, {!merge_cols} and {!merge_cols_sub}
    convert between the two layouts.

    See DESIGN.md, section "Codec kernel". *)

val split_cols : k:int -> bps:int -> Bytes.t -> Bytes.t array
(** [split_cols ~k ~bps framed] transposes a stripe-major framed buffer
    (each stripe = [k] symbols of [bps] bytes) into [k] column-contiguous
    buffers of one symbol per stripe. Column [j] is exactly the payload
    of message fragment [n-k+j] of {!Rs_bch}.
    @raise Invalid_argument if the buffer is not a whole number of
    stripes. *)

val merge_cols : k:int -> bps:int -> Bytes.t array -> Bytes.t
[@@lint.allow "X1: test oracle — the split_cols round-trip checks through it"]
(** Inverse of {!split_cols}: interleave [k] equal-length column buffers
    back into one stripe-major buffer.
    @raise Invalid_argument on ragged or miscounted columns. *)

val merge_cols_sub :
  k:int ->
  bps:int ->
  bufs:Bytes.t array ->
  offs:int array ->
  col_len:int ->
  lo:int ->
  len:int ->
  dst:Bytes.t ->
  doff:int ->
  unit
(** [merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo ~len ~dst ~doff]
    interleaves byte range [lo, lo+len) of the virtual stripe-major
    layout — whose column [j] is the [col_len]-byte view at
    [offs.(j)] of [bufs.(j)] — directly into [dst] at [doff]. Decode
    uses it to extract the value (skipping header and padding) without
    materializing the framed buffer.
    @raise Invalid_argument on ragged views or out-of-range spans. *)
