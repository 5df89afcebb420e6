(** Arithmetic in the finite field GF(2{^8}).

    The field is realized as GF(2)[x]/(x{^8} + x{^4} + x{^3} + x{^2} + 1),
    i.e. the primitive polynomial [0x11d] used by most Reed-Solomon
    deployments (QR codes, many storage systems). Elements are represented
    as [int] values in the range [0, 255]. The generator [alpha = 0x02] is
    primitive, so every non-zero element is a power of [alpha]. The
    scalar arithmetic — log/antilog tables for O(1) multiplication,
    division and inversion — is {!Field.Make} at 8 bits; this module
    adds the byte-table buffer sweeps the codec runs on. *)

include Field.S
(** Elements are [int]s in [0, 255]; [alpha_pow e] is [alpha{^e}] for
    any integer [e] (negative allowed), [alpha = 0x02]. [div] and [inv]
    raise [Division_by_zero] on a zero divisor. *)

val mul_slow : t -> t -> t
[@@lint.allow "X1: test oracle — the table-driven mul is checked against it"]
(** Reference carry-less ("Russian peasant") multiplication, used by the
    test suite to validate the table-driven {!mul}. *)

(** {1 Buffer-level kernels}

    The Reed-Solomon hot loops multiply long byte buffers by a handful of
    fixed coefficients. A per-coefficient 256-entry product table turns
    each multiply into one byte-indexed load — no log/exp indirection and
    no zero branches — and the buffer sweeps below amortize the bounds
    checks over whole fragments. *)

val mul_table : t -> Bytes.t
(** [mul_table c] is the 256-byte table [t] with [t.[x] = c * x]. All
    tables are precomputed at module initialization, so this is an O(1)
    array read, safe from any domain, and callers may share the result
    freely (but must not mutate it).
    @raise Invalid_argument outside [0, 255]. *)

val mul_buf :
  Bytes.t -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** [mul_buf table ~src ~soff ~dst ~doff ~len] sets
    [dst.[doff+i] <- table.[src.[soff+i]]] for [i] in [0, len): a
    [dst := c * src] sweep over views when [table = mul_table c], 8
    bytes per load. [src] and [dst] may be the same buffer only with
    [soff = doff].
    @raise Invalid_argument if a range exceeds its buffer or the table
    is not 256 bytes. *)

val muladd_buf :
  Bytes.t -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** [muladd_buf table ~src ~soff ~dst ~doff ~len] performs
    [dst.[doff+i] <- dst.[doff+i] xor table.[src.[soff+i]]]: the fused
    [dst += c * src] byte-table sweep over views.
    @raise Invalid_argument as {!mul_buf}. *)
