(* Codec kernel throughput, reported as JSON (Bench.emit) so successive
   runs can be archived as a trajectory. Invoked as

     dune exec bench/main.exe -- codec            # full (64 KiB + 1 MiB)
     dune exec bench/main.exe -- codec --smoke    # tiny CI quota

   It measures wall-clock MB/s of whole encode/decode calls, including
   framing, transposition and fragment allocation — the number a
   deployment actually sees per value. *)

let value_of_size len =
  Bytes.init len (fun i -> Char.chr ((i * 31) land 0xff))

(* one row: wall-clock MB/s of whole calls of [f] on [size] bytes *)
let measure (opts : Bench.opts) ~codec ~op ~size f =
  let min_elapsed = if opts.smoke then 0.05 else 0.15 in
  let s = Bench.time_per_call ~min_elapsed ~min_iters:3 f in
  Bench.row ~better:Higher
    (Printf.sprintf "%s/%s/%d" codec op size)
    "mb_per_s" "MB/s"
    (float_of_int size /. s /. 1e6)

let codec_points opts code size =
  let value = value_of_size size in
  let name = Erasure.Mds.name code in
  let k = Erasure.Mds.k code in
  let encode =
    measure opts ~codec:name ~op:"encode" ~size (fun () ->
        Erasure.Mds.encode code value)
  in
  let fragments = Erasure.Mds.encode code value in
  (* decode from the last k fragments: the message columns of the
     systematic code, read in place (bch_decode_points below solves
     missing message columns) *)
  let survivors =
    List.filteri
      (fun i _ -> i >= Erasure.Mds.n code - k)
      (Array.to_list fragments)
  in
  let decode =
    measure opts ~codec:name ~op:"decode" ~size (fun () ->
        Erasure.Mds.decode code survivors)
  in
  [ encode; decode ]

(* BCH decode from k + 2 fragments — the first k + 2 indices, so two
   systematic columns are missing and go through the matrix sweep —
   clean, with one fragment corrupted whole (every stripe dirty: one
   stripe solve locates the fragment, a second sweep erases it), and
   with one corrupted symbol (one dirty stripe, one stripe solve),
   tracked as separate rows. *)
let bch_decode_points opts code size =
  let value = value_of_size size in
  let name = Erasure.Mds.name code in
  let k = Erasure.Mds.k code in
  let clean =
    List.filteri
      (fun i _ -> i < k + 2)
      (Array.to_list (Erasure.Mds.encode code value))
  in
  let one_err =
    List.mapi
      (fun i f -> if i = 0 then Erasure.Fragment.corrupt f ~seed:1 else f)
      clean
  in
  let one_sym =
    List.mapi
      (fun i f ->
        if i > 0 then f
        else begin
          let data = Bytes.copy (Erasure.Fragment.data f) in
          let pos = Bytes.length data / 2 in
          Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x5a));
          Erasure.Fragment.make ~index:i ~data
        end)
      clean
  in
  [ measure opts ~codec:name ~op:"decode_k+2_clean" ~size (fun () ->
        Erasure.Mds.decode code clean);
    measure opts ~codec:name ~op:"decode_k+2_1err" ~size (fun () ->
        Erasure.Mds.decode code one_err);
    measure opts ~codec:name ~op:"decode_k+2_1sym" ~size (fun () ->
        Erasure.Mds.decode code one_sym)
  ]

let kernel_points opts size =
  let src = value_of_size size in
  let dst = Bytes.make size '\000' in
  let table = Galois.Gf.mul_table 0xb7 in
  let tables16 = Galois.Gf16.mul_tables 0x1b7 in
  [ (* the table sweeps the codec's encode and decode run *)
    measure opts ~codec:"kernel-gf8" ~op:"muladd_buf" ~size (fun () ->
        Galois.Gf.muladd_buf table ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure opts ~codec:"kernel-gf16" ~op:"muladd_buf_v" ~size (fun () ->
        Galois.Gf16.muladd_buf_v tables16 ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure opts ~codec:"kernel" ~op:"xor_into" ~size (fun () ->
        Galois.Wops.xor_into ~src ~soff:0 ~dst ~doff:0 ~len:size)
  ]

let run (opts : Bench.opts) =
  (* the smoke size is part of the full run too, so a committed
     full-run baseline always shares keys with a --smoke run in CI
     (tools/bench_diff matches rows by key, codec/op/size, and metric) *)
  let sizes = if opts.smoke then [ 16384 ] else [ 16384; 65536; 1048576 ] in
  let n = 12 and k = 8 in
  let codecs = [ Erasure.Mds.rs_bch ~n ~k; Erasure.Mds.rs_bch16 ~n ~k ] in
  Bench.emit opts ~bench:"codec"
    (List.concat_map
       (fun size ->
         kernel_points opts size
         @ List.concat_map (fun c -> codec_points opts c size) codecs
         @ bch_decode_points opts (Erasure.Mds.rs_bch ~n ~k) size)
       sizes)
