(* Codec kernel throughput, reported as JSON (one object on stdout) so
   successive runs can be archived as a trajectory. Invoked as

     dune exec bench/main.exe -- codec            # full (64 KiB + 1 MiB)
     dune exec bench/main.exe -- codec --smoke    # tiny CI quota

   Unlike the Bechamel microbenchmarks (bench/micro.ml) this measures
   wall-clock MB/s of whole encode/decode calls, including framing,
   transposition and fragment allocation — the number a deployment
   actually sees per value. *)

let smoke = ref false

(* [--out FILE]: also write the JSON object to FILE (stable schema, see
   BENCH_codec.json at the repo root for the committed baseline). *)
let out : string option ref = ref None

let value_of_size len =
  Bytes.init len (fun i -> Char.chr ((i * 31) land 0xff))

(* Repeat [f] until [min_elapsed] seconds have been spent (at least
   [min_iters] times) and return seconds per call. The whole window is
   repeated [trials] times and the fastest window wins: a background
   load spike inflates a window, never deflates it, so best-of is the
   low-variance estimator that keeps bench_diff's regression gate from
   tripping on scheduler noise. *)
let time_per_call ~min_elapsed ~min_iters f =
  ignore (f ());
  (* warm-up: tables, caches *)
  let window () =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let elapsed = ref 0.0 in
    while !iters < min_iters || !elapsed < min_elapsed do
      ignore (f ());
      incr iters;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed /. float_of_int !iters
  in
  let trials = 3 in
  let best = ref (window ()) in
  for _ = 2 to trials do
    let s = window () in
    if s < !best then best := s
  done;
  !best

let mb_per_s ~bytes seconds = float_of_int bytes /. seconds /. 1e6

type point = {
  codec : string;
  op : string;
  size : int;
  domains : int;
  mbps : float;
  ns : float;
}

(* [size] is the value size, part of the point's key; MB/s counts
   [bytes], the bytes the operation processes (default [size]). *)
let measure ~codec ~op ~size ?(bytes = size) ~domains f =
  let min_elapsed = if !smoke then 0.05 else 0.15 in
  let s = time_per_call ~min_elapsed ~min_iters:3 f in
  { codec; op; size; domains; mbps = mb_per_s ~bytes s; ns = s *. 1e9 }

let codec_points ~domains code size =
  let value = value_of_size size in
  let name = Erasure.Mds.name code in
  let k = Erasure.Mds.k code in
  let encode =
    measure ~codec:name ~op:"encode" ~size ~domains (fun () ->
        Erasure.Mds.encode ~domains code value)
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
    measure ~codec:name ~op:"decode" ~size ~domains (fun () ->
        Erasure.Mds.decode ~domains code survivors)
  in
  (* incremental parity maintenance: a 4 KiB patch in the middle of the
     value; the row is keyed by the value size, and MB/s counts the
     patch bytes, the work the update does *)
  let patch_len = min 4096 (max 1 (size / 4)) in
  let patch = value_of_size patch_len in
  let pos = (size - patch_len) / 2 in
  let update =
    measure ~codec:name ~op:"update" ~size ~bytes:patch_len ~domains (fun () ->
        Erasure.Mds.update ~domains code ~fragments ~value ~pos patch)
  in
  [ encode; decode; update ]

(* BCH decode from k + 2 fragments — the first k + 2 indices, so two
   systematic columns are missing and go through the matrix sweep —
   clean, with one fragment corrupted whole (every stripe dirty: one
   stripe solve locates the fragment, a second sweep erases it), and
   with one corrupted symbol (one dirty stripe, one stripe solve),
   tracked as separate rows. *)
let bch_decode_points ~domains code size =
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
  [ measure ~codec:name ~op:"decode_k+2_clean" ~size ~domains (fun () ->
        Erasure.Mds.decode ~domains code clean);
    measure ~codec:name ~op:"decode_k+2_1err" ~size ~domains (fun () ->
        Erasure.Mds.decode ~domains code one_err);
    measure ~codec:name ~op:"decode_k+2_1sym" ~size ~domains (fun () ->
        Erasure.Mds.decode ~domains code one_sym)
  ]

let kernel_points size =
  let src = value_of_size size in
  let dst = Bytes.make size '\000' in
  let table = Galois.Gf.mul_table 0xb7 in
  let tables16 = Galois.Gf16.mul_tables 0x1b7 in
  let wt = Galois.Gf.wtable 0xb7 in
  [ (* byte-table sweeps: what the codec's encode and decode run *)
    measure ~codec:"kernel-gf8" ~op:"muladd_buf" ~size ~domains:1 (fun () ->
        Galois.Gf.muladd_buf table ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure ~codec:"kernel-gf16" ~op:"muladd_buf" ~size ~domains:1 (fun () ->
        Galois.Gf16.muladd_buf tables16 ~src ~dst ~off:0 ~len:(size / 2));
    (* word-sliced sweep: 64-bit loads over 16-bit chunk tables — what
       the GF(2^8) parity update runs *)
    measure ~codec:"kernel-gf8" ~op:"muladd_buf_w" ~size ~domains:1 (fun () ->
        Galois.Gf.muladd_buf_w wt ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure ~codec:"kernel" ~op:"xor_into" ~size ~domains:1 (fun () ->
        Galois.Wops.xor_into ~src ~soff:0 ~dst ~doff:0 ~len:size)
  ]

let emit points =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"bench\":\"codec\",";
  Buffer.add_string buf
    (Printf.sprintf "\"smoke\":%b,\"results\":[" !smoke);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"codec\":%S,\"op\":%S,\"size\":%d,\"domains\":%d,\"mb_per_s\":%.1f,\"ns_per_op\":%.0f}"
           p.codec p.op p.size p.domains p.mbps p.ns))
    points;
  Buffer.add_string buf "]}";
  let json = Buffer.contents buf in
  print_endline json;
  match !out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc

let run () =
  (* the smoke size is part of the full run too, so a committed
     full-run baseline always shares keys with a --smoke run in CI
     (tools/bench_diff matches points by codec/op/size/domains) *)
  let sizes = if !smoke then [ 16384 ] else [ 16384; 65536; 1048576 ] in
  let n = 12 and k = 8 in
  let codecs = [ Erasure.Mds.rs_bch ~n ~k; Erasure.Mds.rs_bch16 ~n ~k ] in
  let points =
    List.concat_map
      (fun size ->
        kernel_points size
        @ List.concat_map (fun c -> codec_points ~domains:1 c size) codecs
        @ bch_decode_points ~domains:1 (Erasure.Mds.rs_bch ~n ~k) size)
      sizes
  in
  (* Domain-parallel point: the largest size, rs-bch, sharded. *)
  let parallel =
    if !smoke then []
    else
      let size = 1048576 in
      let domains = Harness.Parallel.recommended_domains () in
      if domains < 2 then []
      else codec_points ~domains (Erasure.Mds.rs_bch ~n ~k) size
  in
  emit (points @ parallel)
