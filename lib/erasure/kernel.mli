(** Buffer-level Reed-Solomon kernel.

    The Reed-Solomon codec is, on its hot path, one computation: a
    small matrix of field coefficients applied to long byte buffers.
    This module packages the three ingredients of that table-driven,
    row-major formulation:

    - {b row application} ({!apply_row8_v}, {!apply_row16_v}) over the
      product-table sweeps of {!Galois.Gf} and {!Galois.Gf16}: one
      table per coefficient turns a field multiply into a table load;
    - {b stripe transposition} ({!split_cols}/{!merge_cols}) between the
      stripe-major framed value and the column-contiguous buffers the
      sweeps want;
    - {b domain striping} ({!parallel_rows}): sharding the stripe range
      of one encode/decode across OCaml domains for large values.

    See DESIGN.md, section "Codec kernel". *)

type table = Bytes.t
(** A 256-entry GF(2{^8}) product table; see {!Galois.Gf.mul_table}. *)

type table16 = Galois.Gf16.mul_tables
(** Split product tables for one GF(2{^16}) coefficient. *)

val row_tables16 : Galois.Gf16.t array -> table16 array
(** GF(2{^16}) row tables. Builds (and caches) each coefficient's split
    tables; call in the coordinating domain before {!parallel_rows} —
    first-time construction must not race. *)

type wtable = Galois.Gf.wtable
(** Word-sweep (chunk) tables for one GF(2{^8}) coefficient; see
    {!Galois.Wops}. *)

val row_wtables : Galois.Gf.t array -> wtable array
(** Chunk tables for every coefficient of a row (cached globally,
    mutex-guarded — build in the coordinating domain to keep
    construction out of the sharded region). Zero coefficients get a
    table too (never read: the sweeps skip them). Used by the
    patch-proportional update, whose generator rows recur. *)

val split_cols : k:int -> bps:int -> Bytes.t -> Bytes.t array
(** [split_cols ~k ~bps framed] transposes a stripe-major framed buffer
    (each stripe = [k] symbols of [bps] bytes) into [k] column-contiguous
    buffers of one symbol per stripe. Column [j] is exactly the payload
    of message fragment [n-k+j] of {!Rs_bch}.
    @raise Invalid_argument if the buffer is not a whole number of
    stripes. *)

val merge_cols : k:int -> bps:int -> Bytes.t array -> Bytes.t
(** Inverse of {!split_cols}: interleave [k] equal-length column buffers
    back into one stripe-major buffer.
    @raise Invalid_argument on ragged or miscounted columns. *)

val split_cols_into : k:int -> bps:int -> Bytes.t -> dst:Bytes.t -> doff:int -> unit
(** [split_cols_into ~k ~bps framed ~dst ~doff] is {!split_cols}
    transposing into a caller-supplied backing buffer: column [j]
    occupies [doff + j*stripes*bps, doff + (j+1)*stripes*bps) of [dst].
    The patch path of {!Rs_update} sweeps its delta columns from here.
    @raise Invalid_argument if the framed buffer is not a whole number
    of stripes or the columns exceed [dst]. *)

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
  tables:table16 array ->
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

val parallel_rows :
  ?domains:int -> ?min_chunk:int -> n:int -> (lo:int -> len:int -> unit) -> unit
(** [parallel_rows ~domains ~n f] covers the range [0, n) with disjoint
    calls [f ~lo ~len], sharded over up to [domains] OCaml domains
    (contiguous chunks, one per domain). With [domains <= 1] — the
    default, keeping the deterministic simulator single-domain — or when
    [n < 2 * min_chunk] (default [min_chunk] 4096, so spawning is never
    cheaper than the work), [f] runs inline as a single chunk. [f] must
    be safe to run concurrently on disjoint ranges. If any chunk raises,
    the lowest-indexed exception is re-raised after all domains join. *)
