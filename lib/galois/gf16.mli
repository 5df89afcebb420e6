(** Arithmetic in the finite field GF(2{^16}).

    Same design as {!Gf} one size up: the field is
    GF(2)[x]/(x{^16} + x{^12} + x{^3} + x + 1) (the primitive polynomial
    [0x1100B]), elements are [int]s in [0, 65535], and the scalar
    arithmetic is {!Field.Make} at 16 bits: log/antilog tables over the
    primitive element [alpha = 0x02] (128 KiB of tables, built once at
    load). This module adds the split-table buffer sweeps.

    GF(2{^16}) symbols let Reed-Solomon codes reach lengths up to 65535,
    removing GF(2{^8})'s n <= 255 cap — needed for systems with several
    hundred servers, which the paper's introduction motivates. *)

include Field.S
(** Elements are [int]s in [0, 65535]; [alpha_pow e] is [alpha{^e}]
    for any integer [e], [alpha = 0x02]. [div] and [inv] raise
    [Division_by_zero] on a zero divisor. *)

val mul_slow : t -> t -> t
[@@lint.allow "X1: test oracle — the table-driven mul is checked against it"]
(** Reference shift-and-add multiplication, for validating {!mul}. *)

(** {1 Buffer-level kernels}

    GF(2{^16}) analogue of {!Gf.mul_table}/{!Gf.muladd_buf}. A full
    per-coefficient product table would be 128 KiB, so each coefficient
    gets the classical {e split} tables — 256 entries for the low source
    byte and 256 for the high — combined by XOR-linearity:
    [c * x = hi.(x lsr 8) lxor lo.(x land 0xff)]. *)

type mul_tables
(** Split product tables for one fixed coefficient. *)

val mul_tables : t -> mul_tables
(** [mul_tables c] returns (building and caching on first use) the split
    tables for [c]. The cache is mutex-guarded, so first-time
    construction may race from several domains.
    @raise Invalid_argument outside [0, 65535]. *)

val mul_buf_v :
  mul_tables -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** Split-table [dst <- c * src] over views; offsets and [len] are in
    bytes ([len] even).
    @raise Invalid_argument on a bad range or odd [len]. *)

val muladd_buf_v :
  mul_tables -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** Split-table [dst += c * src] over views; as {!mul_buf_v}. *)
