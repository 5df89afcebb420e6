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
  mbps : float;
  ns : float;
}

let measure ~codec ~op ~size f =
  let min_elapsed = if !smoke then 0.05 else 0.15 in
  let s = time_per_call ~min_elapsed ~min_iters:3 f in
  { codec; op; size; mbps = mb_per_s ~bytes:size s; ns = s *. 1e9 }

let codec_points code size =
  let value = value_of_size size in
  let name = Erasure.Mds.name code in
  let k = Erasure.Mds.k code in
  let encode =
    measure ~codec:name ~op:"encode" ~size (fun () ->
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
    measure ~codec:name ~op:"decode" ~size (fun () ->
        Erasure.Mds.decode code survivors)
  in
  [ encode; decode ]

(* BCH decode from k + 2 fragments — the first k + 2 indices, so two
   systematic columns are missing and go through the matrix sweep —
   clean, with one fragment corrupted whole (every stripe dirty: one
   stripe solve locates the fragment, a second sweep erases it), and
   with one corrupted symbol (one dirty stripe, one stripe solve),
   tracked as separate rows. *)
let bch_decode_points code size =
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
  [ measure ~codec:name ~op:"decode_k+2_clean" ~size (fun () ->
        Erasure.Mds.decode code clean);
    measure ~codec:name ~op:"decode_k+2_1err" ~size (fun () ->
        Erasure.Mds.decode code one_err);
    measure ~codec:name ~op:"decode_k+2_1sym" ~size (fun () ->
        Erasure.Mds.decode code one_sym)
  ]

let kernel_points size =
  let src = value_of_size size in
  let dst = Bytes.make size '\000' in
  let table = Galois.Gf.mul_table 0xb7 in
  let tables16 = Galois.Gf16.mul_tables 0x1b7 in
  [ (* the table sweeps the codec's encode and decode run *)
    measure ~codec:"kernel-gf8" ~op:"muladd_buf" ~size (fun () ->
        Galois.Gf.muladd_buf table ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure ~codec:"kernel-gf16" ~op:"muladd_buf_v" ~size (fun () ->
        Galois.Gf16.muladd_buf_v tables16 ~src ~soff:0 ~dst ~doff:0 ~len:size);
    measure ~codec:"kernel" ~op:"xor_into" ~size (fun () ->
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
           "{\"codec\":%S,\"op\":%S,\"size\":%d,\"mb_per_s\":%.1f,\"ns_per_op\":%.0f}"
           p.codec p.op p.size p.mbps p.ns))
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
     (tools/bench_diff matches points by codec/op/size) *)
  let sizes = if !smoke then [ 16384 ] else [ 16384; 65536; 1048576 ] in
  let n = 12 and k = 8 in
  let codecs = [ Erasure.Mds.rs_bch ~n ~k; Erasure.Mds.rs_bch16 ~n ~k ] in
  emit
    (List.concat_map
       (fun size ->
         kernel_points size
         @ List.concat_map (fun c -> codec_points c size) codecs
         @ bch_decode_points (Erasure.Mds.rs_bch ~n ~k) size)
       sizes)
