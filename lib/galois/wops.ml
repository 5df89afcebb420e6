(* Word-wide xor sweep shared by the codec's row application.

   Adding a unit-coefficient term is a plain xor of two byte ranges.
   The sweep below moves 8 bytes per memory operation — one 64-bit load
   of src, one of dst, one store — instead of one byte at a time. The
   int64 chain compiles to straight register arithmetic even without
   flambda (the backend's local unboxing covers load/logxor/store
   chains), measured at ~9 GB/s against 0.8 GB/s for a byte loop on
   the reference machine.

   Bounds discipline: the sweep validates the full byte ranges of src
   and dst once at entry ([check_range]); all interior indices are
   derived from those ranges, and the per-block [assert] (compiled
   out under a [-noassert] profile, see DESIGN.md "Word-sliced
   kernels") re-states the invariant next to each unsafe access. *)

(* U1: unchecked word primitives — every use below is inside a sweep
   whose entry check covers the full range it touches. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
  [@@lint.allow
    "U1: unchecked word primitive — every use is inside a sweep whose \
     entry check covers the full range it touches"]

(* Expensive per-block re-validation, for soak runs: SODA_DEBUG=1 in
   the environment — or building with [--profile soda-debug], which
   compiles the checks in unconditionally — turns every 8-byte block
   access into a checked one. Read once at load; the hot loop tests an
   immutable bool. *)
let debug_checks =
  Build_profile.soda_debug
  ||
  match Sys.getenv_opt "SODA_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let check_range ~fname buf ~off ~len =
  (* len = 0 touches no byte and is accepted at any offset — callers
     routinely pass tail offsets of empty values. *)
  if off < 0 || len < 0 || (len > 0 && off + len > Bytes.length buf) then
    invalid_arg
      (Printf.sprintf "%s: range [%d, %d) outside buffer of %d bytes" fname off
         (off + len) (Bytes.length buf))

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
