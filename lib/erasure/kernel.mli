(** Buffer-level Reed-Solomon kernel.

    The Reed-Solomon codec is, on its hot path, one computation: a
    small matrix of field coefficients applied to long byte buffers.
    This module packages the two ingredients of that table-driven,
    row-major formulation:

    - {b row application} ({!apply_row8_v}, {!apply_row16_v}) over the
      product-table sweeps of {!Galois.Gf} and {!Galois.Gf16}: one
      table per coefficient turns a field multiply into a table load;
    - {b stripe transposition} ({!split_cols}/{!merge_cols}/
      {!merge_cols_sub}) between the stripe-major framed value and the
      column-contiguous buffers the sweeps want.

    See DESIGN.md, section "Codec kernel". *)

type table = Bytes.t
(** A 256-entry GF(2{^8}) product table; see {!Galois.Gf.mul_table}. *)

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

val apply_row8_v :
  coeffs:Galois.Gf.t array ->
  tables:table array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  off:int ->
  len:int ->
  unit
(** View-aware GF(2{^8}) row application on byte tables ([tables] the
    coefficients' {!Galois.Gf.mul_table}s):
    [dst.[doff+off+i] <- sum_j coeffs.(j) * srcs.(j).[soffs.(j)+off+i]]
    for [i] in [0, len). Zero coefficients are skipped, a leading unit
    is a blit, a later unit an 8-byte-wide xor, and an all-zero row
    zero-fills. *)

val apply_row16_v :
  coeffs:Galois.Gf16.t array ->
  tables:Galois.Gf16.mul_tables array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  off:int ->
  len:int ->
  unit
(** View-aware GF(2{^16}) row application on split tables, with the
    semantics of {!apply_row8_v}; all offsets and [len] are in bytes
    ([len] even). *)
