include Field.Make (struct
  let bits = 8
  let primitive_poly = 0x11d
end)

(* ------------------------------------------------------------------ *)
(* Buffer-level kernels.

   One 256-entry product table per coefficient turns a field multiply
   into a single byte-indexed load, with no zero branches and no
   log/exp indirection, which is what lets the Reed-Solomon codecs
   stream whole fragments. All 256 tables together are only 64 KiB, so
   they are built eagerly at module initialization: [mul_table] is a
   pure array read and therefore safe to call from any domain. *)

let[@lint.allow
     "R1: built eagerly at module initialization and never written again"]
    all_tables =
  Array.init order (fun c -> Bytes.init order (fun x -> Char.chr (mul c x)))

let mul_table c =
  if c < 0 || c > field_mask then
    invalid_arg (Printf.sprintf "Gf.mul_table: %d out of range [0, 255]" c)
  else all_tables.(c)

let check_buf_args ~fname table ~src ~soff ~dst ~doff ~len =
  if Bytes.length table <> order then
    invalid_arg (fname ^ ": table must have 256 entries");
  let outside buf off = off < 0 || (len > 0 && off + len > Bytes.length buf) in
  if len < 0 || outside src soff || outside dst doff then
    invalid_arg
      (Printf.sprintf "%s: ranges src [%d, %d) dst [%d, %d) outside buffers (src %d, dst %d)"
         fname soff (soff + len) doff (doff + len) (Bytes.length src)
         (Bytes.length dst))

(* Byte-table sweeps, 8 bytes per memory operation: one 64-bit load of
   src, eight lookups in the 256-entry table, one 64-bit load and store
   of dst. Every byte lane maps independently, so the lane order
   (target endianness) is irrelevant. They are the codec's encode and
   decode sweeps.

   U1 audit: every unchecked access below is justified by
   [check_buf_args]: every index is in [soff, soff+len) of src or
   [doff, doff+len) of dst, and every table index is masked to a byte. *)
[@@@lint.allow
  "U1: entry checks put every offset inside both buffers and every table \
   index is masked to a byte"]

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] lane t v = Char.code (Bytes.unsafe_get t (v land 0xff))

(* The products of the four byte lanes of a 32-bit value. *)
let[@inline] lanes32 t v =
  lane t v
  lor (lane t (v lsr 8) lsl 8)
  lor (lane t (v lsr 16) lsl 16)
  lor (lane t (v lsr 24) lsl 24)

let mul_buf table ~src ~soff ~dst ~doff ~len =
  check_buf_args ~fname:"Gf.mul_buf" table ~src ~soff ~dst ~doff ~len;
  let i = ref 0 in
  while len - !i >= 8 do
    let j = !i in
    let x = get64 src (soff + j) in
    let lo = lanes32 table (Int64.to_int x land 0xffffffff) in
    let hi = lanes32 table (Int64.to_int (Int64.shift_right_logical x 32)) in
    set64 dst (doff + j)
      (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32));
    i := j + 8
  done;
  for j = !i to len - 1 do
    Bytes.unsafe_set dst (doff + j)
      (Char.unsafe_chr (lane table (Char.code (Bytes.unsafe_get src (soff + j)))))
  done

let muladd_buf table ~src ~soff ~dst ~doff ~len =
  check_buf_args ~fname:"Gf.muladd_buf" table ~src ~soff ~dst ~doff ~len;
  let i = ref 0 in
  while len - !i >= 8 do
    let j = !i in
    let x = get64 src (soff + j) in
    let lo = lanes32 table (Int64.to_int x land 0xffffffff) in
    let hi = lanes32 table (Int64.to_int (Int64.shift_right_logical x 32)) in
    let p = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32) in
    set64 dst (doff + j) (Int64.logxor p (get64 dst (doff + j)));
    i := j + 8
  done;
  for j = !i to len - 1 do
    let p = lane table (Char.code (Bytes.unsafe_get src (soff + j))) in
    let d = Char.code (Bytes.unsafe_get dst (doff + j)) in
    Bytes.unsafe_set dst (doff + j) (Char.unsafe_chr (p lxor d))
  done
