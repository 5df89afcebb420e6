(* Differential tests for the table-driven codec kernel: the
   Reed-Solomon codec's row-major, table-driven encode/decode, over
   GF(2^8) and GF(2^16), must agree byte-for-byte with straightforward
   stripe-major references built on [mul_slow] (the shift-and-add
   multiplier — independent of the log/exp AND the product tables):
   the seed implementation's per-stripe polynomial division, the
   systematic generator matrix, and the Vandermonde parity-check
   matrix. *)

module Gf = Galois.Gf
module Gf16 = Galois.Gf16
module Splitter = Erasure.Splitter
module Fragment = Erasure.Fragment

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

(* ------------------------------------------------------------------ *)
(* Reference encoders/decoders: stripe-major loops, one symbol at a
   time. Three independent views of the one code: polynomial division
   (the seed implementation), the generator matrix, and the Vandermonde
   parity-check matrix. *)

let get8 buf i = Char.code (Bytes.get buf i)
let set8 buf i v = Bytes.set buf i (Char.chr v)
let get16 buf i = Bytes.get_uint16_be buf (2 * i)
let set16 buf i v = Bytes.set_uint16_be buf (2 * i) v

module type SLOW_SYMBOL = sig
  module F : Galois.Field.S

  val bps : int

  (* symbol [i] of a buffer *)
  val get : bytes -> int -> int
  val set : bytes -> int -> int -> unit
end

module Slow_bch (S : SLOW_SYMBOL) = struct
  module Poly = Galois.Poly_gen.Make (S.F)
  module Matrix = Galois.Matrix_gen.Make (S.F)

  (* The codeword of one message stripe: message symbol j at
     coefficient x^(n-k+j), parity = x^(n-k) M(x) mod g. *)
  let codeword ~n ~k msg =
    let parity_len = n - k in
    let g = ref Poly.one in
    for j = 1 to parity_len do
      g := Poly.mul !g (Poly.of_list [ S.F.alpha_pow j; S.F.one ])
    done;
    let cw = Array.make n S.F.zero in
    Array.blit msg 0 cw parity_len k;
    if parity_len > 0 then begin
      let parity = Poly.rem (Poly.of_coeffs cw) !g in
      for i = 0 to parity_len - 1 do
        cw.(i) <- Poly.coeff parity i
      done
    end;
    cw

  (* The message columns of [value]: the framed value is column-major,
     so column j holds framed symbols [j*stripes, (j+1)*stripes), one
     per stripe. *)
  let message_columns ~k value =
    let framed = Splitter.frame ~k:(S.bps * k) value in
    let stripes = Bytes.length framed / (S.bps * k) in
    Array.init k (fun j ->
        let col = Bytes.create (S.bps * stripes) in
        for s = 0 to stripes - 1 do
          S.set col s (S.get framed ((j * stripes) + s))
        done;
        col)

  (* Inverse of [message_columns]. *)
  let unframe_columns ~k cols =
    let stripes = Bytes.length cols.(0) / S.bps in
    let framed = Bytes.create (stripes * k * S.bps) in
    for s = 0 to stripes - 1 do
      for j = 0 to k - 1 do
        S.set framed ((j * stripes) + s) (S.get cols.(j) s)
      done
    done;
    Splitter.unframe framed

  let encode ~n ~k value =
    let cols = message_columns ~k value in
    let stripes = Bytes.length cols.(0) / S.bps in
    let outputs = Array.init n (fun _ -> Bytes.create (S.bps * stripes)) in
    for s = 0 to stripes - 1 do
      let cw = codeword ~n ~k (Array.init k (fun j -> S.get cols.(j) s)) in
      Array.iteri (fun i out -> S.set out s cw.(i)) outputs
    done;
    outputs

  (* Generator column [j]: the codeword of unit message [j]. *)
  let generator ~n ~k =
    Array.init k (fun j ->
        codeword ~n ~k
          (Array.init k (fun l -> if l = j then S.F.one else S.F.zero)))

  (* Encode as the generator matrix times each message stripe. *)
  let encode_by_generator ~n ~k value =
    let columns = generator ~n ~k in
    let cols = message_columns ~k value in
    let stripes = Bytes.length cols.(0) / S.bps in
    Array.init n (fun i ->
        let out = Bytes.create (S.bps * stripes) in
        for s = 0 to stripes - 1 do
          let acc = ref S.F.zero in
          for j = 0 to k - 1 do
            acc := S.F.add !acc (S.F.mul columns.(j).(i) (S.get cols.(j) s))
          done;
          S.set out s !acc
        done;
        out)

  (* Decode the fragments at [indices] by inverting the generator rows
     they select. *)
  let decode ~n ~k ~indices datas =
    let columns = generator ~n ~k in
    let inv =
      Matrix.invert
        (Matrix.create ~rows:k ~cols:k (fun r j -> columns.(j).(indices.(r))))
    in
    let stripes = Bytes.length datas.(0) / S.bps in
    unframe_columns ~k
      (Array.init k (fun j ->
           let col = Bytes.create (S.bps * stripes) in
           for s = 0 to stripes - 1 do
             let acc = ref S.F.zero in
             for r = 0 to k - 1 do
               acc :=
                 S.F.add !acc (S.F.mul (Matrix.get inv j r) (S.get datas.(r) s))
             done;
             S.set col s !acc
           done;
           col))

  (* Every codeword c satisfies c(alpha^i) = 0 for i = 1 .. n-k, so the
     parity-check matrix H has entry (i, j) = alpha^((i+1) j): a
     Vandermonde matrix. Given the k fragments at [indices], the n-k
     missing symbols of each stripe solve
     H_missing c_missing = H_known c_known (characteristic 2), with
     H_missing a square Vandermonde matrix on distinct points. Returns
     all n fragments. *)
  let complete_by_parity_check ~n ~k ~indices datas =
    let h i j = S.F.alpha_pow ((i + 1) * j) in
    let missing =
      Array.of_list
        (List.filter (fun j -> not (Array.mem j indices)) (List.init n Fun.id))
    in
    let inv =
      lazy
        (Matrix.invert
           (Matrix.create ~rows:(n - k) ~cols:(n - k) (fun i r ->
                h i missing.(r))))
    in
    let stripes = Bytes.length datas.(0) / S.bps in
    let out = Array.make n Bytes.empty in
    Array.iteri (fun r i -> out.(i) <- datas.(r)) indices;
    Array.iter (fun i -> out.(i) <- Bytes.create (S.bps * stripes)) missing;
    for s = 0 to stripes - 1 do
      let syndrome =
        Array.init (n - k) (fun i ->
            let acc = ref S.F.zero in
            Array.iteri
              (fun r j ->
                acc := S.F.add !acc (S.F.mul (h i j) (S.get datas.(r) s)))
              indices;
            !acc)
      in
      Array.iteri
        (fun r j ->
          let acc = ref S.F.zero in
          Array.iteri
            (fun i x ->
              acc := S.F.add !acc (S.F.mul (Matrix.get (Lazy.force inv) r i) x))
            syndrome;
          S.set out.(j) s !acc)
        missing
    done;
    out

  let encode_by_parity_check ~n ~k value =
    complete_by_parity_check ~n ~k
      ~indices:(Array.init k (fun j -> n - k + j))
      (message_columns ~k value)

  let decode_by_parity_check ~n ~k ~indices datas =
    let cw = complete_by_parity_check ~n ~k ~indices datas in
    unframe_columns ~k (Array.sub cw (n - k) k)
end

module Slow_bch8 = Slow_bch (struct
  module F = SlowGf

  let bps = 1
  let get = get8
  let set = set8
end)

module Slow_bch16 = Slow_bch (struct
  module F = SlowGf16

  let bps = 2
  let get = get16
  let set = set16
end)

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
        let code = Erasure.Rs_bch.make ~n ~k in
        fragments_equal (Erasure.Rs_bch.encode code v)
          (Slow_bch8.encode_by_parity_check ~n ~k v));
    qtest "systematic encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        fragments_equal (Erasure.Rs_bch.encode code v)
          (Slow_bch8.encode_by_generator ~n ~k v));
    qtest "bch encode = slow-polynomial reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        fragments_equal (Erasure.Rs_bch.encode code v)
          (Slow_bch8.encode ~n ~k v));
    qtest "rs16 encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_bch16.make ~n ~k in
        fragments_equal (Erasure.Rs_bch16.encode code v)
          (Slow_bch16.encode ~n ~k v))
  ]

(* ------------------------------------------------------------------ *)
(* Decode differentials: a random k-subset of fragments in random order,
   decoded both by the kernel codec and by a slow reference: inverting
   the generator rows the subset selects, or solving the parity checks
   for the missing symbols. *)

let decode_gen =
  QCheck2.Gen.(
    nkv_gen >>= fun (n, k, v) ->
    subset_gen ~n k >|= fun indices -> (n, k, v, indices))

let decode_tests =
  [ qtest "vandermonde decode (k random fragments) = slow reference"
      decode_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        let chosen = pick (Erasure.Rs_bch.encode code v) indices in
        let decoded = Erasure.Rs_bch.decode code chosen in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        Bytes.equal decoded
          (Slow_bch8.decode_by_parity_check ~n ~k ~indices datas)
        && Bytes.equal decoded v);
    qtest "systematic decode (k random fragments) = slow reference"
      decode_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        let chosen = pick (Erasure.Rs_bch.encode code v) indices in
        let decoded = Erasure.Rs_bch.decode code chosen in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        Bytes.equal decoded (Slow_bch8.decode ~n ~k ~indices datas)
        && Bytes.equal decoded v);
    qtest "rs16 decode (k random fragments) = slow reference" decode_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_bch16.make ~n ~k in
        let chosen = pick (Erasure.Rs_bch16.encode code v) indices in
        let decoded = Erasure.Rs_bch16.decode code chosen in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        Bytes.equal decoded (Slow_bch16.decode ~n ~k ~indices datas)
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
        quad (int_range 0 65535) (bytes_gen 200) (int_range 0 17)
          (int_range 0 17))
      (fun (c, src, soff, doff) ->
        (* the view sweeps the codec runs, at independent, deliberately
           unaligned byte offsets into src and dst over an even length *)
        let t = Gf16.mul_tables c in
        let soff = min soff (Bytes.length src) in
        let len = (Bytes.length src - soff) land lnot 1 in
        let dst0 =
          Bytes.init (doff + len + 3) (fun i -> Char.chr ((i * 13) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf16.muladd_buf_v t ~src ~soff ~dst ~doff ~len;
        let ok = ref true in
        let check expect_at =
          for i = 0 to Bytes.length dst - 1 do
            if Char.code (Bytes.get dst i) <> expect_at i then ok := false
          done
        in
        (* byte [i] of dst is one half of the big-endian product of the
           symbol at the same distance into src *)
        let term i =
          let b = i - doff in
          let p =
            Gf16.mul_slow c (Bytes.get_uint16_be src (soff + (b land lnot 1)))
          in
          if b land 1 = 0 then p lsr 8 else p land 0xff
        in
        let inside i = i >= doff && i < doff + len in
        check (fun i ->
            let d = Char.code (Bytes.get dst0 i) in
            if inside i then d lxor term i else d);
        (* mul overwrites the range and leaves the rest alone *)
        Gf16.mul_buf_v t ~src ~soff ~dst ~doff ~len;
        check (fun i ->
            if inside i then term i
            else Char.code (Bytes.get dst0 i));
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
    qtest ~count:300 "Splitter.columns/extract round-trip"
      QCheck2.Gen.(
        quad (int_range 1 12) (int_range 1 2) (bytes_gen 200)
          (array_size (return 12) (int_range 0 9)))
      (fun (k, bps, v, pads) ->
        (* the columns are the framed value's k equal slices, headers
           that straddle columns included (short values, large k) *)
        let cols = Splitter.columns ~k ~bps v in
        let framed = Splitter.frame ~k:(bps * k) v in
        let col_len = Bytes.length framed / k in
        let slices_ok =
          Array.length cols = k
          && Array.for_all2 Bytes.equal cols
               (Array.init k (fun j -> Bytes.sub framed (j * col_len) col_len))
        in
        (* extract reads each column as a view at a non-zero offset of a
           larger buffer, between garbage bytes *)
        let offs = Array.init k (fun j -> 1 + pads.(j)) in
        let bufs =
          Array.mapi
            (fun j col ->
              let buf =
                Bytes.init (offs.(j) + col_len + 3) (fun i ->
                    Char.chr ((i * 29) land 0xff))
              in
              Bytes.blit col 0 buf offs.(j) col_len;
              buf)
            cols
        in
        slices_ok
        && Bytes.equal v (Splitter.extract ~k ~bps ~bufs ~offs ~col_len))
  ]

let () =
  Alcotest.run "kernel"
    [ ("encode-differential", encode_tests);
      ("decode-differential", decode_tests);
      ("bch-patterns", bch_tests);
      ("buffer-primitives", buf_tests)
    ]
