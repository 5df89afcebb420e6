(* Word-sliced buffer sweeps behind the GF(2^8) chunk-table kernels.

   The per-byte product-table loops top out around 800 MB/s: every byte
   pays a load from src, a table load, a load from dst and a store. The
   sweeps here move 8 bytes per memory operation instead. A coefficient
   is represented by a "chunk table" — 65536 16-bit entries mapping a
   16-bit chunk of the source stream directly to the corresponding
   16-bit chunk of the product stream — so one 64-bit load from src
   costs four table lookups, one 64-bit load from dst and one 64-bit
   store. Both bytes of a chunk are independent GF(2^8) products.

   The int64 chains below compile to straight register arithmetic even
   without flambda (the backend's local unboxing covers load/logxor/
   store chains), measured at ~2.3 GB/s muladd and ~9 GB/s xor against
   0.8 GB/s for the byte loops on the reference machine.

   Endianness: chunk tables are built through [chunk_of_pair] below,
   i.e. through the same native-endian 16-bit
   primitives the sweeps read with, so the scheme is self-consistent on
   both little- and big-endian targets.

   Bounds discipline: every public sweep validates the full byte ranges
   of src and dst once at entry ([check_range]); all interior indices
   are derived from those ranges, and the per-block [assert]s (compiled
   out under a [-noassert] profile, see DESIGN.md "Word-sliced
   kernels") re-state the invariant next to each unsafe access. *)

(* U1: unchecked word primitives — every use below is inside a sweep
   whose entry check covers the full range it touches. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

type chunk_table = Bytes.t

let chunk_table_bytes = 131072 (* 65536 entries * 2 bytes *)

(* Expensive per-block re-validation, for soak runs: SODA_DEBUG=1 in
   the environment — or building with [--profile soda-debug], which
   compiles the checks in unconditionally — turns every 8/2-byte block
   access into a checked one. Read once at load; the hot loops test an
   immutable bool. *)
let debug_checks =
  Build_profile.soda_debug
  ||
  match Sys.getenv_opt "SODA_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* [chunk_of_pair b0 b1] is the 16-bit chunk value [get16] returns for
   two consecutive memory bytes [b0, b1]. Computed once against the
   real primitives so table construction matches the sweeps' byte
   order exactly. *)
let little_endian =
  let probe = Bytes.create 2 in
  Bytes.set probe 0 '\x01';
  Bytes.set probe 1 '\x00';
  get16 probe 0 = 1

let chunk_of_pair b0 b1 = if little_endian then b0 lor (b1 lsl 8) else b1 lor (b0 lsl 8)

(* [make_chunk_table f] builds the table for the bytewise product map
   [f]: for every chunk, each byte maps independently. Used by GF(2^8),
   where multiplication acts on single bytes. *)
let make_chunk_table_bytewise f =
  let t = Bytes.create chunk_table_bytes in
  for b0 = 0 to 255 do
    let p0 = f b0 in
    for b1 = 0 to 255 do
      set16 t (2 * chunk_of_pair b0 b1) (chunk_of_pair p0 (f b1))
    done
  done;
  t

let check_range ~fname buf ~off ~len =
  (* len = 0 touches no byte and is accepted at any offset — callers
     routinely pass tail offsets of empty values. *)
  if off < 0 || len < 0 || (len > 0 && off + len > Bytes.length buf) then
    invalid_arg
      (Printf.sprintf "%s: range [%d, %d) outside buffer of %d bytes" fname off
         (off + len) (Bytes.length buf))

let check_table ~fname t =
  if Bytes.length t <> chunk_table_bytes then
    invalid_arg (fname ^ ": not a chunk table")

(* dst[doff+i] ^= src[soff+i] for i in [0, len). src and dst may be the
   same buffer only when soff = doff (each word is read before it is
   written); partially overlapping ranges are unsupported. *)
let xor_into ~src ~soff ~dst ~doff ~len =
  check_range ~fname:"Wops.xor_into" src ~off:soff ~len;
  check_range ~fname:"Wops.xor_into" dst ~off:doff ~len;
  let i = ref 0 in
  while len - !i >= 8 do
    let j = !i in
    if debug_checks then
      assert (soff + j + 8 <= Bytes.length src && doff + j + 8 <= Bytes.length dst);
    set64 dst (doff + j) (Int64.logxor (get64 src (soff + j)) (get64 dst (doff + j)));
    i := j + 8
  done;
  while !i < len do
    let j = !i in
    let s = Char.code (Bytes.get src (soff + j)) in
    let d = Char.code (Bytes.get dst (doff + j)) in
    Bytes.set dst (doff + j) (Char.unsafe_chr (s lxor d));
    incr i
  done

(* The 64-bit product step: one word of src through four chunk lookups,
   xored into dst. Unrolled x2 — measured the knee of the curve; x4
   gained nothing. *)

let muladd_chunks t ~src ~soff ~dst ~doff ~len =
  check_table ~fname:"Wops.muladd_chunks" t;
  check_range ~fname:"Wops.muladd_chunks" src ~off:soff ~len;
  check_range ~fname:"Wops.muladd_chunks" dst ~off:doff ~len;
  if len land 1 <> 0 then invalid_arg "Wops.muladd_chunks: odd length";
  let i = ref 0 in
  while len - !i >= 16 do
    let j = !i in
    if debug_checks then
      assert (soff + j + 16 <= Bytes.length src && doff + j + 16 <= Bytes.length dst);
    let x = get64 src (soff + j) in
    let lo = Int64.to_int x land 0xffffffff in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    let plo = get16 t (2 * (lo land 0xffff)) lor (get16 t (2 * (lo lsr 16)) lsl 16) in
    let phi = get16 t (2 * (hi land 0xffff)) lor (get16 t (2 * (hi lsr 16)) lsl 16) in
    let p = Int64.logor (Int64.of_int plo) (Int64.shift_left (Int64.of_int phi) 32) in
    set64 dst (doff + j) (Int64.logxor p (get64 dst (doff + j)));
    let j = j + 8 in
    let x = get64 src (soff + j) in
    let lo = Int64.to_int x land 0xffffffff in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    let plo = get16 t (2 * (lo land 0xffff)) lor (get16 t (2 * (lo lsr 16)) lsl 16) in
    let phi = get16 t (2 * (hi land 0xffff)) lor (get16 t (2 * (hi lsr 16)) lsl 16) in
    let p = Int64.logor (Int64.of_int plo) (Int64.shift_left (Int64.of_int phi) 32) in
    set64 dst (doff + j) (Int64.logxor p (get64 dst (doff + j)));
    i := j + 8
  done;
  while !i < len do
    let j = !i in
    if debug_checks then
      assert (soff + j + 2 <= Bytes.length src && doff + j + 2 <= Bytes.length dst);
    set16 dst (doff + j)
      (get16 t (2 * get16 src (soff + j)) lxor get16 dst (doff + j));
    i := j + 2
  done

