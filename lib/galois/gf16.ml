include Field.Make (struct
  let bits = 16
  let primitive_poly = 0x1100b
end)

(* ------------------------------------------------------------------ *)
(* Buffer-level kernels.

   A full 65536-entry product table per coefficient would cost 128 KiB
   each, so we use the classical split-table scheme instead: for a
   coefficient [c],

     c * x = c * (hi(x) << 8)  xor  c * lo(x)
           = hi_table.(hi(x)) xor lo_table.(lo(x))

   by linearity of GF(2^16) multiplication over XOR. Two 256-entry int
   arrays per coefficient, one load each per symbol.

   Tables are cached per coefficient on first use. A mutex serializes
   the check-and-fill so concurrent first-time requests from multiple
   domains are safe; table construction is setup cost (once per
   coefficient), never part of the per-symbol inner loop, so the lock
   is off the hot path. *)

type mul_tables = { lo : int array; hi : int array }

let build_tables c =
  { lo = Array.init 256 (fun x -> mul c x);
    hi = Array.init 256 (fun x -> mul c (x lsl 8))
  }

let[@lint.allow
     "R1: all reads and writes happen under tables_mutex below"]
    tables_cache : mul_tables option array =
  Array.make order None

let[@lint.allow "R1: the mutex guarding tables_cache is itself domain-safe"]
    tables_mutex = Mutex.create ()

let mul_tables c =
  if c < 0 || c > field_mask then
    invalid_arg (Printf.sprintf "Gf16.mul_tables: %d out of range [0, 65535]" c)
  else begin
    Mutex.lock tables_mutex;
    let t =
      match tables_cache.(c) with
      | Some t -> t
      | None ->
        let t = build_tables c in
        tables_cache.(c) <- Some t;
        t
    in
    Mutex.unlock tables_mutex;
    t
  end

(* U1 audit: unsafe accesses below are covered by [check_v_args];
   table indices are single bytes into 256-entry arrays. *)
[@@@lint.allow
  "U1: entry checks put every offset inside both buffers and table \
   indices are single bytes into 256-entry arrays"]

(* Split-table sweeps over views, one symbol per step: offsets and
   [len] are byte counts, as the codec tracks byte positions in views
   into shared buffers. Symbols are big-endian, as the codec lays them
   out. *)

let check_v_args ~fname ~src ~soff ~dst ~doff ~len =
  if
    soff < 0 || doff < 0 || len < 0 || len land 1 <> 0
    || (len > 0
       && (soff + len > Bytes.length src || doff + len > Bytes.length dst))
  then
    invalid_arg
      (Printf.sprintf "%s: bad byte range (soff %d doff %d len %d)" fname soff
         doff len)

let mul_buf_v t ~src ~soff ~dst ~doff ~len =
  check_v_args ~fname:"Gf16.mul_buf_v" ~src ~soff ~dst ~doff ~len;
  let { lo; hi } = t in
  let symbols = len / 2 in
  for s = 0 to symbols - 1 do
    let i = soff + (2 * s) and o = doff + (2 * s) in
    let xh = Char.code (Bytes.unsafe_get src i) in
    let xl = Char.code (Bytes.unsafe_get src (i + 1)) in
    let p = Array.unsafe_get hi xh lxor Array.unsafe_get lo xl in
    Bytes.unsafe_set dst o (Char.unsafe_chr (p lsr 8));
    Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr (p land 0xff))
  done

let muladd_buf_v t ~src ~soff ~dst ~doff ~len =
  check_v_args ~fname:"Gf16.muladd_buf_v" ~src ~soff ~dst ~doff ~len;
  let { lo; hi } = t in
  let symbols = len / 2 in
  for s = 0 to symbols - 1 do
    let i = soff + (2 * s) and o = doff + (2 * s) in
    let xh = Char.code (Bytes.unsafe_get src i) in
    let xl = Char.code (Bytes.unsafe_get src (i + 1)) in
    let p = Array.unsafe_get hi xh lxor Array.unsafe_get lo xl in
    let dh = Char.code (Bytes.unsafe_get dst o) in
    let dl = Char.code (Bytes.unsafe_get dst (o + 1)) in
    Bytes.unsafe_set dst o (Char.unsafe_chr ((p lsr 8) lxor dh));
    Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((p land 0xff) lxor dl))
  done
