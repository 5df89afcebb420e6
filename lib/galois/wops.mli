(** Word-sliced buffer sweeps behind the {!Gf} chunk-table kernels.

    A {e chunk table} represents multiplication by one fixed coefficient
    as a map from 16-bit chunks of the source byte stream to 16-bit
    chunks of the product stream (65536 entries, 128 KiB). Because the
    map is per-chunk, the inner loops can process 8 source bytes per
    64-bit load — four table lookups, one xor, one store — instead of
    one table lookup per byte, which is where the >2 GB/s muladd
    throughput comes from (see DESIGN.md, "Word-sliced kernels").

    Chunk tables are built through the same native-endian 16-bit
    primitives the sweeps read with, so the scheme is self-consistent
    regardless of target byte order. {!Gf.wtable} builds and caches
    them per coefficient; this module only defines the representation,
    the product sweep and the plain xor sweep every codec path uses.

    All sweeps validate the full byte ranges at entry. Setting
    [SODA_DEBUG=1] in the environment additionally re-checks every
    interior block access (for soak runs; see DESIGN.md). [src] and
    [dst] may alias only as the {e same} buffer with [soff = doff];
    partially overlapping ranges are unsupported. *)

type chunk_table = Bytes.t
(** 65536 16-bit entries: chunk of source bytes -> chunk of product
    bytes, in native byte order. *)

val chunk_table_bytes : int
(** Byte size of a chunk table: 131072. *)

val little_endian : bool
(** Byte order of the 16-bit primitives on this target. *)

val make_chunk_table_bytewise : (int -> int) -> chunk_table
(** [make_chunk_table_bytewise f] builds the chunk table for a product
    map acting on each byte independently ([f] on [0, 255]) — the
    GF(2{^8}) case. *)

val xor_into : src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** [xor_into ~src ~soff ~dst ~doff ~len]:
    [dst.[doff+i] <- dst.[doff+i] xor src.[soff+i]] for [i] in
    [0, len), 8 bytes at a time. Any [len >= 0].
    @raise Invalid_argument if either range exceeds its buffer. *)

val muladd_chunks :
  chunk_table -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> len:int -> unit
(** [muladd_chunks t ~src ~soff ~dst ~doff ~len]: [dst += c * src] over
    [len] bytes (must be even — chunk granularity; the caller handles a
    possible odd tail byte).
    @raise Invalid_argument on a bad range, odd [len], or a table of the
    wrong size. *)

