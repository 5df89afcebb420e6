(* Differential tests for the table-driven codec kernel: every codec's
   row-major, table-driven encode/decode must agree byte-for-byte with
   a straightforward stripe-major reference built on [Gf.mul_slow]
   (the shift-and-add multiplier — independent of the log/exp AND the
   product tables). The reference mirrors the pre-kernel
   implementations of the four Reed-Solomon variants. *)

module Gf = Galois.Gf
module Gf16 = Galois.Gf16
module Splitter = Erasure.Splitter
module Fragment = Erasure.Fragment
module Kernel = Erasure.Kernel

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Slow fields: table-free multiplication throughout. *)

module SlowGf : Galois.Field.S with type t = int = struct
  include Galois.Gf

  let mul = Galois.Gf.mul_slow
  let div a b = Galois.Gf.mul_slow a (Galois.Gf.inv b)
end

module SlowGf16 : Galois.Field.S with type t = int = struct
  include Galois.Gf16

  let mul = Galois.Gf16.mul_slow
  let div a b = Galois.Gf16.mul_slow a (Galois.Gf16.inv b)
end

module SlowMatrix = Galois.Matrix_gen.Make (SlowGf)
module SlowMatrix16 = Galois.Matrix_gen.Make (SlowGf16)
module SlowPoly = Galois.Poly_gen.Make (SlowGf)

(* ------------------------------------------------------------------ *)
(* Reference encoders/decoders: stripe-major triple loops, one symbol
   at a time, exactly like the seed implementations. *)

let get8 buf i = Char.code (Bytes.get buf i)
let set8 buf i v = Bytes.set buf i (Char.chr v)
let get16 buf i = Bytes.get_uint16_be buf (2 * i)
let set16 buf i v = Bytes.set_uint16_be buf (2 * i) v

(* Apply an [n x k] matrix (given as rows) stripe by stripe. *)
let ref_matrix_encode ~mul ~get ~set ~bps rows ~k framed =
  let n = Array.length rows in
  let stripes = Bytes.length framed / (k * bps) in
  Array.init n (fun i ->
      let out = Bytes.create (stripes * bps) in
      let row = rows.(i) in
      for s = 0 to stripes - 1 do
        let acc = ref 0 in
        for j = 0 to k - 1 do
          acc := !acc lxor mul row.(j) (get framed ((s * k) + j))
        done;
        set out s !acc
      done;
      out)

let ref_matrix_decode ~mul ~get ~set ~bps inv_rows ~k datas stripes =
  let framed = Bytes.create (stripes * k * bps) in
  for s = 0 to stripes - 1 do
    for j = 0 to k - 1 do
      let row = inv_rows.(j) in
      let acc = ref 0 in
      for l = 0 to k - 1 do
        acc := !acc lxor mul row.(l) (get datas.(l) s)
      done;
      set framed ((s * k) + j) !acc
    done
  done;
  framed

let ref_encode_vand ~n ~k value =
  let framed = Splitter.frame ~k value in
  let g = SlowMatrix.vandermonde ~rows:n ~cols:k in
  let rows = Array.init n (SlowMatrix.row g) in
  ref_matrix_encode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1 rows ~k framed

let slow_sys_generator ~n ~k =
  let v = SlowMatrix.vandermonde ~rows:n ~cols:k in
  let top = SlowMatrix.select_rows v (Array.init k (fun i -> i)) in
  SlowMatrix.mul v (SlowMatrix.invert top)

let ref_encode_sys ~n ~k value =
  let framed = Splitter.frame ~k value in
  let g = slow_sys_generator ~n ~k in
  let rows = Array.init n (SlowMatrix.row g) in
  ref_matrix_encode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1 rows ~k framed

let ref_encode_rs16 ~n ~k value =
  let framed = Splitter.frame ~k:(2 * k) value in
  let g = SlowMatrix16.vandermonde ~rows:n ~cols:k in
  let rows = Array.init n (SlowMatrix16.row g) in
  ref_matrix_encode ~mul:Gf16.mul_slow ~get:get16 ~set:set16 ~bps:2 rows ~k
    framed

(* Systematic BCH-form encode: parity = x^(n-k) M(x) mod g, computed per
   stripe with slow polynomial arithmetic (the seed's encode_stripe). *)
let ref_encode_bch ~n ~k value =
  let parity_len = n - k in
  let g = ref SlowPoly.one in
  for j = 1 to parity_len do
    g := SlowPoly.mul !g (SlowPoly.of_list [ SlowGf.alpha_pow j; SlowGf.one ])
  done;
  let g = !g in
  let framed = Splitter.frame ~k value in
  let stripes = Bytes.length framed / k in
  let outputs = Array.init n (fun _ -> Bytes.create stripes) in
  for s = 0 to stripes - 1 do
    let msg = Array.init k (fun j -> get8 framed ((s * k) + j)) in
    let cw = Array.make n 0 in
    if parity_len = 0 then Array.blit msg 0 cw 0 k
    else begin
      let shifted =
        SlowPoly.of_coeffs
          (Array.init n (fun i ->
               if i < parity_len then 0 else msg.(i - parity_len)))
      in
      let parity = SlowPoly.rem shifted g in
      for i = 0 to parity_len - 1 do
        cw.(i) <- SlowPoly.coeff parity i
      done;
      Array.blit msg 0 cw parity_len k
    end;
    for i = 0 to n - 1 do
      set8 outputs.(i) s cw.(i)
    done
  done;
  outputs

(* ------------------------------------------------------------------ *)
(* Generators *)

let bytes_gen max_len =
  QCheck2.Gen.(string_size (int_range 0 max_len) >|= Bytes.of_string)

(* (n, k, value): n in [2, 12], 1 <= k <= n *)
let nkv_gen =
  QCheck2.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 1 n >>= fun k ->
    bytes_gen 1200 >|= fun v -> (n, k, v))

(* A shuffled choice of exactly [k] distinct fragment indices. *)
let subset_gen ~n k =
  QCheck2.Gen.(
    shuffle_a (Array.init n (fun i -> i)) >|= fun perm -> Array.sub perm 0 k)

let fragments_equal frags refs =
  Array.length frags = Array.length refs
  && Array.for_all2 (fun f r -> Bytes.equal (Fragment.data f) r) frags refs

let pick frags indices =
  Array.to_list (Array.map (fun i -> frags.(i)) indices)

(* ------------------------------------------------------------------ *)
(* Encode differentials *)

let encode_tests =
  [ qtest "vandermonde encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_vandermonde.make ~n ~k in
        fragments_equal (Erasure.Rs_vandermonde.encode code v)
          (ref_encode_vand ~n ~k v));
    qtest "systematic encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_systematic.make ~n ~k in
        fragments_equal (Erasure.Rs_systematic.encode code v)
          (ref_encode_sys ~n ~k v));
    qtest "bch encode = slow-polynomial reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        fragments_equal (Erasure.Rs_bch.encode code v) (ref_encode_bch ~n ~k v));
    qtest "rs16 encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs16.make ~n ~k in
        fragments_equal (Erasure.Rs16.encode code v) (ref_encode_rs16 ~n ~k v))
  ]

(* ------------------------------------------------------------------ *)
(* Decode differentials: a random k-subset of fragments, decoded both by
   the kernel codec and by slow submatrix inversion. *)

let decode_vand_gen =
  QCheck2.Gen.(
    nkv_gen >>= fun (n, k, v) ->
    subset_gen ~n k >|= fun indices -> (n, k, v, indices))

let decode_tests =
  [ qtest "vandermonde decode (k random fragments) = slow reference"
      decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_vandermonde.make ~n ~k in
        let frags = Erasure.Rs_vandermonde.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs_vandermonde.decode code chosen in
        let g = SlowMatrix.vandermonde ~rows:n ~cols:k in
        let inv = SlowMatrix.invert (SlowMatrix.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) in
        let framed =
          ref_matrix_decode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v);
    qtest "systematic decode (k random fragments) = slow reference"
      decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_systematic.make ~n ~k in
        let frags = Erasure.Rs_systematic.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs_systematic.decode code chosen in
        let g = slow_sys_generator ~n ~k in
        let inv = SlowMatrix.invert (SlowMatrix.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) in
        let framed =
          ref_matrix_decode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v);
    qtest "rs16 decode (k random fragments) = slow reference" decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs16.make ~n ~k in
        let frags = Erasure.Rs16.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs16.decode code chosen in
        let g = SlowMatrix16.vandermonde ~rows:n ~cols:k in
        let inv = SlowMatrix16.invert (SlowMatrix16.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix16.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) / 2 in
        let framed =
          ref_matrix_decode ~mul:Gf16.mul_slow ~get:get16 ~set:set16 ~bps:2
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v)
  ]

(* ------------------------------------------------------------------ *)
(* BCH: random erasure + error patterns within the correction radius. *)

let bch_pattern_gen =
  QCheck2.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 1 n >>= fun k ->
    int_range 0 (n - k) >>= fun erasures ->
    int_range 0 ((n - k - erasures) / 2) >>= fun errors ->
    shuffle_a (Array.init n (fun i -> i)) >>= fun perm ->
    bytes_gen 800 >|= fun v ->
    let erased = Array.sub perm 0 erasures in
    let corrupted = Array.sub perm erasures errors in
    (n, k, v, erased, corrupted))

let bch_tests =
  [ qtest "bch decode corrects random erasure+error patterns"
      bch_pattern_gen
      (fun (n, k, v, erased, corrupted) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        let frags = Erasure.Rs_bch.encode code v in
        let received =
          Array.to_list frags
          |> List.filter (fun f ->
                 not (Array.mem (Fragment.index f) erased))
          |> List.map (fun f ->
                 if Array.mem (Fragment.index f) corrupted then
                   Fragment.corrupt f ~seed:11
                 else f)
        in
        Bytes.equal (Erasure.Rs_bch.decode code received) v);
    qtest ~count:20 "bch16 decode corrects random erasure+error patterns"
      bch_pattern_gen
      (fun (n, k, v, erased, corrupted) ->
        let code = Erasure.Rs_bch16.make ~n ~k in
        let frags = Erasure.Rs_bch16.encode code v in
        let received =
          Array.to_list frags
          |> List.filter (fun f ->
                 not (Array.mem (Fragment.index f) erased))
          |> List.map (fun f ->
                 if Array.mem (Fragment.index f) corrupted then
                   Fragment.corrupt f ~seed:13
                 else f)
        in
        Bytes.equal (Erasure.Rs_bch16.decode code received) v)
  ]

(* ------------------------------------------------------------------ *)
(* Buffer primitives against mul_slow, symbol by symbol. *)

let buf_tests =
  [ qtest ~count:150 "Gf.muladd_buf = mul_slow per byte"
      QCheck2.Gen.(
        quad (int_range 0 255) (bytes_gen 200) (int_range 0 17) (int_range 0 17))
      (fun (c, src, soff, doff) ->
        (* independent, deliberately unaligned offsets into src and dst *)
        let table = Gf.mul_table c in
        let soff = min soff (Bytes.length src) in
        let len = max 0 (Bytes.length src - max soff doff) in
        let dst0 =
          Bytes.init (doff + len + 3) (fun i -> Char.chr ((i * 13) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf.muladd_buf table ~src ~soff ~dst ~doff ~len;
        let ok = ref true in
        let check expect_at =
          for i = 0 to Bytes.length dst - 1 do
            if Char.code (Bytes.get dst i) <> expect_at i then ok := false
          done
        in
        let term i = Gf.mul_slow c (Char.code (Bytes.get src (soff + i - doff))) in
        let inside i = i >= doff && i < doff + len in
        check (fun i ->
            let d = Char.code (Bytes.get dst0 i) in
            if inside i then d lxor term i else d);
        (* mul overwrites the range and leaves the rest alone *)
        Gf.mul_buf table ~src ~soff ~dst ~doff ~len;
        check (fun i ->
            if inside i then term i
            else Char.code (Bytes.get dst0 i));
        !ok);
    qtest ~count:100 "Gf16.mul_buf/muladd_buf = mul_slow per symbol"
      QCheck2.Gen.(
        pair (int_range 0 65535) (string_size (int_range 0 150) >|= Bytes.of_string))
      (fun (c, raw) ->
        let symbols = Bytes.length raw / 2 in
        let src = Bytes.sub raw 0 (2 * symbols) in
        let dst = Bytes.make (2 * symbols) '\x00' in
        let t = Gf16.mul_tables c in
        Gf16.mul_buf t ~src ~dst ~off:0 ~len:symbols;
        let ok = ref true in
        for s = 0 to symbols - 1 do
          if
            Bytes.get_uint16_be dst (2 * s)
            <> Gf16.mul_slow c (Bytes.get_uint16_be src (2 * s))
          then ok := false
        done;
        (* muladd on top of mul doubles every term: must zero out *)
        Gf16.muladd_buf t ~src ~dst ~off:0 ~len:symbols;
        for s = 0 to symbols - 1 do
          if Bytes.get_uint16_be dst (2 * s) <> 0 then ok := false
        done;
        !ok);
    qtest ~count:150 "Gf word sweeps = mul_slow (unaligned off/len)"
      QCheck2.Gen.(
        quad (int_range 0 255) (bytes_gen 200) (int_range 0 17) (int_range 0 17))
      (fun (c, raw, soff, doff) ->
        (* independent, deliberately unaligned offsets into src and dst *)
        let wt = Gf.wtable c in
        let soff = min soff (Bytes.length raw) in
        let len = max 0 (Bytes.length raw - max soff doff) in
        let src = raw in
        let dst0 =
          Bytes.init (doff + len) (fun i -> Char.chr ((i * 11) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf.muladd_buf_w wt ~src ~soff ~dst ~doff ~len;
        let ok = ref true in
        for i = 0 to len - 1 do
          let expect =
            Char.code (Bytes.get dst0 (doff + i))
            lxor Gf.mul_slow c (Char.code (Bytes.get src (soff + i)))
          in
          if Char.code (Bytes.get dst (doff + i)) <> expect then ok := false
        done;
        (* mul overwrites *)
        Gf.mul_buf_w wt ~src ~soff ~dst ~doff ~len;
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst (doff + i))
            <> Gf.mul_slow c (Char.code (Bytes.get src (soff + i)))
          then ok := false
        done;
        !ok);
    qtest ~count:100 "Gf muladd_buf_w aliased src == dst"
      QCheck2.Gen.(
        triple (int_range 0 255) (bytes_gen 120) (int_range 0 9))
      (fun (c, raw, off) ->
        let off = min off (Bytes.length raw) in
        let len = Bytes.length raw - off in
        let buf = Bytes.copy raw in
        Gf.muladd_buf_w (Gf.wtable c) ~src:buf ~soff:off ~dst:buf ~doff:off ~len;
        let ok = ref true in
        for i = off to off + len - 1 do
          let x = Char.code (Bytes.get raw i) in
          if Char.code (Bytes.get buf i) <> x lxor Gf.mul_slow c x then
            ok := false
        done;
        !ok);
    qtest ~count:100 "Wops.xor_into = bytewise xor (unaligned)"
      QCheck2.Gen.(
        triple (bytes_gen 200) (int_range 0 13) (int_range 0 13))
      (fun (raw, soff, doff) ->
        let soff = min soff (Bytes.length raw) in
        let len = max 0 (Bytes.length raw - max soff doff) in
        let dst0 =
          Bytes.init (doff + len) (fun i -> Char.chr ((i * 29) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Galois.Wops.xor_into ~src:raw ~soff ~dst ~doff ~len;
        let ok = ref true in
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst (doff + i))
            <> Char.code (Bytes.get dst0 (doff + i))
               lxor Char.code (Bytes.get raw (soff + i))
          then ok := false
        done;
        !ok);
    qtest ~count:60 "Gf16 word sweeps = mul_slow per symbol"
      QCheck2.Gen.(
        triple (int_range 0 65535)
          (string_size (int_range 0 160) >|= Bytes.of_string)
          (int_range 0 5))
      (fun (c, raw, symoff) ->
        let wt = Gf16.wtable c in
        let symbols = max 0 ((Bytes.length raw / 2) - symoff) in
        let soff = 2 * symoff and len = 2 * symbols in
        let dst0 =
          Bytes.init (2 * symbols) (fun i -> Char.chr ((i * 23) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf16.muladd_buf_w wt ~src:raw ~soff ~dst ~doff:0 ~len;
        let ok = ref true in
        for s = 0 to symbols - 1 do
          let expect =
            Bytes.get_uint16_be dst0 (2 * s)
            lxor Gf16.mul_slow c (Bytes.get_uint16_be raw (soff + (2 * s)))
          in
          if Bytes.get_uint16_be dst (2 * s) <> expect then ok := false
        done;
        Gf16.mul_buf_w wt ~src:raw ~soff ~dst ~doff:0 ~len;
        for s = 0 to symbols - 1 do
          if
            Bytes.get_uint16_be dst (2 * s)
            <> Gf16.mul_slow c (Bytes.get_uint16_be raw (soff + (2 * s)))
          then ok := false
        done;
        !ok);
    qtest ~count:100 "split_cols/merge_cols round-trip"
      QCheck2.Gen.(
        triple (int_range 1 10) (int_range 1 3) (int_range 0 60))
      (fun (k, bps, stripes) ->
        let framed =
          Bytes.init (k * bps * stripes) (fun i -> Char.chr ((i * 13) land 0xff))
        in
        let cols = Kernel.split_cols ~k ~bps framed in
        Bytes.equal (Kernel.merge_cols ~k ~bps cols) framed)
  ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel paths must produce identical bytes. *)

let parallel_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"parallel_rows covers [0, n) exactly"
         QCheck2.Gen.(pair (int_range 0 200) (int_range 1 5))
         (fun (n, domains) ->
           let hits = Array.make (max n 1) 0 in
           Kernel.parallel_rows ~domains ~min_chunk:1 ~n (fun ~lo ~len ->
               for i = lo to lo + len - 1 do
                 (* chunks are disjoint: no two domains touch the same i *)
                 hits.(i) <- hits.(i) + 1
               done);
           n = 0 || Array.for_all (fun h -> h = 1) hits));
    Alcotest.test_case "multi-domain encode/decode = single-domain" `Quick
      (fun () ->
        (* big enough that parallel_rows really shards: stripes >= 2 * 4096 *)
        let value =
          Bytes.init 70_000 (fun i -> Char.chr ((i * 31) land 0xff))
        in
        let check codec =
          let seq = Erasure.Mds.encode codec value in
          let par = Erasure.Mds.encode ~domains:3 codec value in
          Alcotest.(check bool)
            (Erasure.Mds.name codec ^ " encode identical")
            true
            (Array.for_all2 Fragment.equal seq par);
          let survivors =
            Array.to_list par
            |> List.filteri (fun i _ ->
                   i >= Erasure.Mds.n codec - Erasure.Mds.k codec)
          in
          Alcotest.(check bool)
            (Erasure.Mds.name codec ^ " decode identical")
            true
            (Bytes.equal (Erasure.Mds.decode ~domains:3 codec survivors) value)
        in
        check (Erasure.Mds.rs_vandermonde ~n:6 ~k:4);
        check (Erasure.Mds.rs_systematic ~n:6 ~k:4);
        check (Erasure.Mds.rs_bch ~n:6 ~k:4);
        check (Erasure.Mds.rs16 ~n:6 ~k:4))
  ]

let () =
  Alcotest.run "kernel"
    [ ("encode-differential", encode_tests);
      ("decode-differential", decode_tests);
      ("bch-patterns", bch_tests);
      ("buffer-primitives", buf_tests);
      ("parallel", parallel_tests)
    ]
