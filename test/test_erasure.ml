(* Tests for the erasure-coding layer: framing, the Reed-Solomon codec
   over GF(2^8) and GF(2^16), replication and the unified Mds
   interface. *)

module Splitter = Erasure.Splitter
module Fragment = Erasure.Fragment
module Rs_bch = Erasure.Rs_bch
module Rs_bch16 = Erasure.Rs_bch16
module Mds = Erasure.Mds

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bytes_gen =
  QCheck2.Gen.(string_size (int_range 0 600) >|= Bytes.of_string)

(* (n, k) with 1 <= k <= n <= 30 *)
let nk_gen =
  QCheck2.Gen.(
    int_range 1 30 >>= fun n ->
    int_range 1 n >|= fun k -> (n, k))

(* Choose [m] distinct elements of [0, n). *)
let subset_gen ~n m =
  QCheck2.Gen.(
    shuffle_a (Array.init n (fun i -> i)) >|= fun perm -> Array.sub perm 0 m)

(* ------------------------------------------------------------------ *)
(* Splitter *)

let splitter_tests =
  [ qtest "frame/unframe round-trip"
      QCheck2.Gen.(pair (int_range 1 40) bytes_gen)
      (fun (k, v) -> Bytes.equal v (Splitter.unframe (Splitter.frame ~k v)));
    qtest "framed length is a positive multiple of k"
      QCheck2.Gen.(pair (int_range 1 40) bytes_gen)
      (fun (k, v) ->
        let framed = Splitter.frame ~k v in
        Bytes.length framed > 0 && Bytes.length framed mod k = 0);
    qtest "fragment_size consistent with frame"
      QCheck2.Gen.(pair (int_range 1 40) bytes_gen)
      (fun (k, v) ->
        Splitter.fragment_size ~k ~value_len:(Bytes.length v) * k
        = Bytes.length (Splitter.frame ~k v));
    Alcotest.test_case "unframe rejects garbage" `Quick (fun () ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        Alcotest.(check bool) "short buffer" true
          (raises (fun () -> Splitter.unframe (Bytes.of_string "ab")));
        let bad = Bytes.make 8 '\255' in
        Alcotest.(check bool) "bad header" true
          (raises (fun () -> Splitter.unframe bad)))
  ]

(* ------------------------------------------------------------------ *)
(* Erasure-only decoding: any k of the n fragments, the decode SODA and
   CAS run. The group is named after the Vandermonde-matrix codec that
   used to serve them; the parity-check matrix of the BCH-form code is
   itself Vandermonde. *)

let vand_tests =
  [ qtest "decode from any k fragments"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        pair bytes_gen (subset_gen ~n k) >|= fun (v, idx) -> (n, k, v, idx))
      (fun (n, k, v, idx) ->
        let pick frags = Array.to_list (Array.map (fun i -> frags.(i)) idx) in
        let code = Rs_bch.make ~n ~k and code16 = Rs_bch16.make ~n ~k in
        Bytes.equal v (Rs_bch.decode code (pick (Rs_bch.encode code v)))
        && Bytes.equal v
             (Rs_bch16.decode code16 (pick (Rs_bch16.encode code16 v))));
    qtest "extra fragments are harmless"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        let code = Rs_bch.make ~n ~k in
        let frags = Array.to_list (Rs_bch.encode code v) in
        Bytes.equal v (Rs_bch.decode code frags));
    qtest "duplicate indices do not count twice"
      QCheck2.Gen.(
        int_range 2 20 >>= fun n ->
        int_range 2 n >>= fun k ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        (* k copies of fragment 0, and (for k > 2) k fragments drawn
           from just indices 0 and 1: one and two distinct indices *)
        let one fs = List.init k (fun _ -> fs.(0))
        and two fs = List.init k (fun i -> fs.(i mod 2)) in
        let code = Rs_bch.make ~n ~k and code16 = Rs_bch16.make ~n ~k in
        let frags = Rs_bch.encode code v
        and frags16 = Rs_bch16.encode code16 v in
        List.for_all
          (fun (pick, distinct) ->
            (match Rs_bch.decode code (pick frags) with
            | _ -> false
            | exception Rs_bch.Insufficient_fragments { needed; got } ->
              needed = k && got = distinct)
            &&
            match Rs_bch16.decode code16 (pick frags16) with
            | _ -> false
            | exception Rs_bch16.Insufficient_fragments { needed; got } ->
              needed = k && got = distinct)
          (List.filter
             (fun (_, distinct) -> distinct < k)
             [ (one, 1); (two, 2) ]));
    qtest "fragment sizes match the formula"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        Array.for_all
          (fun f ->
            Fragment.size f
            = Splitter.fragment_size ~k ~value_len:(Bytes.length v))
          frags);
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        let invalid f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        List.iter
          (fun (name, make, max_n) ->
            Alcotest.(check bool) (name ^ ": k > n") true
              (invalid (fun () -> make ~n:4 ~k:5));
            Alcotest.(check bool) (name ^ ": k = 0") true
              (invalid (fun () -> make ~n:4 ~k:0));
            Alcotest.(check bool) (name ^ ": n > max_n") true
              (invalid (fun () -> make ~n:(max_n + 1) ~k:3)))
          [ ("rs-bch", (fun ~n ~k -> ignore (Rs_bch.make ~n ~k)), 255);
            ("rs-bch16", (fun ~n ~k -> ignore (Rs_bch16.make ~n ~k)), 65535)
          ])
  ]

(* ------------------------------------------------------------------ *)
(* BCH codec: errors and erasures *)

(* Generate (n, k, value, erased set, error set, received order) with
   2*|errors| + |erasures| <= n - k, errors and erasures disjoint, and
   the fragments received in a random order. A quarter of the cases
   are erasure-only from exactly k fragments, the decode of plain SODA
   and CAS. *)
let bch_scenario_gen ~max_n =
  QCheck2.Gen.(
    int_range 2 max_n >>= fun n ->
    int_range 1 n >>= fun k ->
    let budget = n - k in
    frequency
      [ (1, pure (0, budget));
        ( 3,
          int_range 0 (budget / 2) >>= fun errors ->
          int_range 0 (budget - (2 * errors)) >|= fun erasures ->
          (errors, erasures) )
      ]
    >>= fun (errors, erasures) ->
    subset_gen ~n (errors + erasures) >>= fun positions ->
    subset_gen ~n n >>= fun order ->
    bytes_gen >|= fun v ->
    let err = Array.sub positions 0 errors in
    let era = Array.sub positions errors erasures in
    (n, k, v, era, err, order))

(* The fragments of [frags] in [order], without the [erased] indices
   and with the [errored] ones corrupted. *)
let scenario_received frags ~erased ~errored ~order =
  Array.to_list (Array.map (fun i -> frags.(i)) order)
  |> List.filter (fun f -> not (Array.mem (Fragment.index f) erased))
  |> List.map (fun f ->
         if Array.mem (Fragment.index f) errored then
           Fragment.corrupt f ~seed:42
         else f)

let bch_tests =
  [ qtest ~count:400 "corrects errors and erasures within the radius"
      (bch_scenario_gen ~max_n:30)
      (fun (n, k, v, erased, errored, order) ->
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        Bytes.equal v
          (Rs_bch.decode code
             (scenario_received frags ~erased ~errored ~order)));
    qtest "systematic part carries the frame"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        (* decoding from exactly the systematic fragments works *)
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        let systematic =
          List.init k (fun j -> frags.(n - k + j))
        in
        Bytes.equal v (Rs_bch.decode code systematic));
    qtest ~count:100 "detects corruption beyond the radius or returns garbage \
                      never silently for >= distance/2 on parity-only codes"
      QCheck2.Gen.(
        int_range 6 20 >>= fun n ->
        let k = 1 in
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        (* with k = 1 and all but one fragment corrupted, decoding must
           fail rather than return a wrong value silently, because the
           locator cannot have that many roots. *)
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        let corrupted =
          Array.to_list frags
          |> List.mapi (fun i f ->
                 if i < n - 1 then Fragment.corrupt f ~seed:7 else f)
        in
        match Rs_bch.decode code corrupted with
        | decoded ->
          (* if it decodes, it must decode to some codeword; we only
             require no crash and a well-formed result here *)
          Bytes.length decoded >= 0
        | exception Rs_bch.Decode_failure _ -> true);
    Alcotest.test_case "erasures-only at full radius" `Quick (fun () ->
        let n = 9 and k = 4 in
        let code = Rs_bch.make ~n ~k in
        let v = Bytes.of_string "the quick brown fox jumps" in
        let frags = Rs_bch.encode code v in
        (* erase n - k = 5 fragments *)
        let keep = [ frags.(0); frags.(2); frags.(5); frags.(7) ] in
        Alcotest.(check bool) "decoded" true
          (Bytes.equal v (Rs_bch.decode code keep)));
    Alcotest.test_case "errors-only at full radius" `Quick (fun () ->
        let n = 10 and k = 4 in
        (* (n - k) / 2 = 3 corrupt fragments among all 10 present *)
        let code = Rs_bch.make ~n ~k in
        let v = Bytes.of_string "atomic registers from codes" in
        let frags = Rs_bch.encode code v in
        let frags =
          Array.to_list frags
          |> List.map (fun f ->
                 match Fragment.index f with
                 | 1 | 4 | 8 -> Fragment.corrupt f ~seed:99
                 | _ -> f)
        in
        Alcotest.(check bool) "decoded" true
          (Bytes.equal v (Rs_bch.decode code frags)));
    Alcotest.test_case "insufficient fragments raise" `Quick (fun () ->
        let code = Rs_bch.make ~n:8 ~k:5 in
        let v = Bytes.of_string "x" in
        let frags = Rs_bch.encode code v in
        Alcotest.check_raises "too few"
          (Rs_bch.Insufficient_fragments { needed = 5; got = 2 })
          (fun () ->
            ignore (Rs_bch.decode code [ frags.(0); frags.(3) ])))
  ]

(* ------------------------------------------------------------------ *)
(* Systematic layout: message fragment n-k+j is column j of the framed
   value (its j-th contiguous slice), read in place when present. *)

let sys_tests =
  [ qtest "decode from any k fragments"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        pair bytes_gen (subset_gen ~n k) >|= fun (v, idx) -> (n, k, v, idx))
      (fun (n, k, v, idx) ->
        (* through Mds, the interface the protocols decode with *)
        let code = Mds.rs_bch ~n ~k in
        let frags = Mds.encode code v in
        let chosen = Array.to_list (Array.map (fun i -> frags.(i)) idx) in
        Bytes.equal v (Mds.decode code chosen));
    qtest "systematic fragments are the framed value verbatim"
      QCheck2.Gen.(
        nk_gen >>= fun (n, k) ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        let framed = Splitter.frame ~k v in
        let stripes = Bytes.length framed / k in
        List.for_all
          (fun j ->
            Bytes.equal
              (Fragment.data frags.(n - k + j))
              (Bytes.sub framed (j * stripes) stripes))
          (List.init k Fun.id));
    qtest "fast path and matrix path agree"
      QCheck2.Gen.(
        int_range 2 16 >>= fun n ->
        int_range 1 (n - 1) >>= fun k ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        let code = Rs_bch.make ~n ~k in
        let frags = Rs_bch.encode code v in
        let systematic = List.init k (fun j -> frags.(n - k + j)) in
        (* swap one message fragment for a parity one so one column
           must be solved for instead of read in place *)
        let mixed = frags.(0) :: List.tl systematic in
        Bytes.equal
          (Rs_bch.decode code systematic)
          (Rs_bch.decode code mixed));
    Alcotest.test_case "insufficient fragments raise" `Quick (fun () ->
        let code = Rs_bch.make ~n:6 ~k:4 in
        let frags = Rs_bch.encode code (Bytes.of_string "zz") in
        Alcotest.check_raises "too few"
          (Rs_bch.Insufficient_fragments { needed = 4; got = 2 })
          (fun () -> ignore (Rs_bch.decode code [ frags.(0); frags.(5) ])))
  ]

(* ------------------------------------------------------------------ *)
(* GF(2^16) codec: beyond 255 fragments *)

let rs16_tests =
  [ qtest ~count:100 "decode from any k fragments (moderate n)"
      QCheck2.Gen.(
        int_range 1 40 >>= fun n ->
        int_range 1 n >>= fun k ->
        pair bytes_gen (subset_gen ~n k) >|= fun (v, idx) -> (n, k, v, idx))
      (fun (n, k, v, idx) ->
        let code = Rs_bch16.make ~n ~k in
        let frags = Rs_bch16.encode code v in
        let chosen = Array.to_list (Array.map (fun i -> frags.(i)) idx) in
        Bytes.equal v (Rs_bch16.decode code chosen));
    qtest ~count:10 "round-trips with n in the hundreds"
      QCheck2.Gen.(
        int_range 256 600 >>= fun n ->
        int_range 1 12 >>= fun k ->
        pair bytes_gen (subset_gen ~n k) >|= fun (v, idx) -> (n, k, v, idx))
      (fun (n, k, v, idx) ->
        (* beyond the GF(2^8) codec's n <= 255 cap, from k random
           fragments in random order *)
        let code = Rs_bch16.make ~n ~k in
        let frags = Rs_bch16.encode code v in
        let chosen = Array.to_list (Array.map (fun i -> frags.(i)) idx) in
        Bytes.equal v (Rs_bch16.decode code chosen));
    Alcotest.test_case "n = 255 is rejected by gf256 codecs, fine here"
      `Quick (fun () ->
        Alcotest.(check bool) "rs-bch rejects 300" true
          (match Rs_bch.make ~n:300 ~k:10 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        let code = Rs_bch16.make ~n:300 ~k:10 in
        let v = Bytes.of_string "three hundred servers" in
        let frags = Rs_bch16.encode code v in
        Alcotest.(check int) "300 fragments" 300 (Array.length frags);
        let some = List.init 10 (fun i -> frags.(29 * i)) in
        Alcotest.(check bool) "decodes" true
          (Bytes.equal v (Rs_bch16.decode code some)));
    Alcotest.test_case "insufficient fragments raise" `Quick (fun () ->
        let code = Rs_bch16.make ~n:8 ~k:5 in
        let frags = Rs_bch16.encode code (Bytes.of_string "x") in
        Alcotest.check_raises "too few"
          (Rs_bch16.Insufficient_fragments { needed = 5; got = 2 })
          (fun () -> ignore (Rs_bch16.decode code [ frags.(0); frags.(3) ])));
    qtest "Mds.fragment_size matches actual fragments"
      QCheck2.Gen.(
        int_range 1 30 >>= fun n ->
        int_range 1 n >>= fun k ->
        bytes_gen >|= fun v -> (n, k, v))
      (fun (n, k, v) ->
        let code = Mds.rs_bch16 ~n ~k in
        let frags = Mds.encode code v in
        Array.for_all
          (fun f ->
            Fragment.size f
            = Mds.fragment_size code ~value_len:(Bytes.length v))
          frags)
  ]

(* ------------------------------------------------------------------ *)
(* GF(2^16) errors-and-erasures codec *)

let bch16_tests =
  [ qtest ~count:150 "corrects errors and erasures within the radius"
      (bch_scenario_gen ~max_n:40)
      (fun (n, k, v, erased, errored, order) ->
        let code = Rs_bch16.make ~n ~k in
        let frags = Rs_bch16.encode code v in
        Bytes.equal v
          (Rs_bch16.decode code
             (scenario_received frags ~erased ~errored ~order)));
    Alcotest.test_case "errors + erasures beyond n = 255" `Quick (fun () ->
        let n = 300 and k = 280 in
        (* budget n - k = 20: tolerate 6 errors + 8 erasures *)
        let code = Rs_bch16.make ~n ~k in
        let v = Bytes.of_string (String.make 2000 'q') in
        let frags = Rs_bch16.encode code v in
        let surviving =
          Array.to_list frags
          |> List.filter (fun f -> Fragment.index f mod 40 <> 0)
             (* drops indices 0, 40, ..., 280: 8 erasures *)
          |> List.mapi (fun i f ->
                 if i < 6 then Fragment.corrupt f ~seed:5 else f)
        in
        Alcotest.(check bool) "decoded" true
          (Bytes.equal v (Rs_bch16.decode code surviving)))
  ]

(* ------------------------------------------------------------------ *)
(* Replication + Mds dispatch *)

let mds_tests =
  [ qtest "replication round-trips from any single fragment"
      QCheck2.Gen.(
        int_range 1 20 >>= fun n ->
        pair bytes_gen (int_range 0 (n - 1)) >|= fun (v, i) -> (n, v, i))
      (fun (n, v, i) ->
        (* the [n, 1] code: every fragment alone carries the value *)
        let code = Mds.rs_bch ~n ~k:1 in
        let frags = Mds.encode code v in
        Bytes.equal v (Mds.decode code [ frags.(i) ]));
    qtest "replication encode is one copy, not n"
      QCheck2.Gen.(pair (int_range 1 20) bytes_gen)
      (fun (n, v) ->
        let frags = Mds.encode (Mds.rs_bch ~n ~k:1) v in
        (* each fragment is one framed copy... *)
        Array.for_all
          (fun f ->
            Fragment.size f = Mds.fragment_size (Mds.rs_bch ~n ~k:1)
                                ~value_len:(Bytes.length v))
          frags
        (* ...and corruption copies rather than garbling the original *)
        && (Array.length frags < 2
           ||
           let before = Bytes.copy (Fragment.data frags.(1)) in
           let g = Fragment.corrupt frags.(1) ~seed:5 in
           (not (Fragment.data g == Fragment.data frags.(1)))
           && Bytes.equal before (Fragment.data frags.(1))));
    qtest "Mds round-trip across all codecs"
      QCheck2.Gen.(
        int_range 2 16 >>= fun n ->
        int_range 1 n >>= fun k ->
        pair bytes_gen (int_range 0 2) >>= fun (v, which) ->
        subset_gen ~n k >|= fun idx -> (n, k, v, which, idx))
      (fun (n, k, v, which, idx) ->
        let code =
          match which with
          | 0 -> Mds.rs_bch ~n ~k
          | 1 -> Mds.rs_bch16 ~n ~k
          | _ -> Mds.rs_bch ~n ~k:1
        in
        let frags = Mds.encode code v in
        let subset =
          if which = 2 then [ frags.(idx.(0)) ]
          else Array.to_list (Array.map (fun i -> frags.(i)) idx)
        in
        Bytes.equal v (Mds.decode code subset));
    Alcotest.test_case "storage overhead" `Quick (fun () ->
        (* all n fragments of a framed value that fills its stripes
           store n/k times the framed size *)
        let overhead code =
          let value_len = (7 * 100) - 4 in
          let frags = Mds.encode code (Bytes.make value_len 'v') in
          float (Array.fold_left (fun acc f -> acc + Fragment.size f) 0 frags)
          /. float (value_len + 4)
        in
        Alcotest.(check (float 1e-9))
          "rs" (10. /. 7.)
          (overhead (Mds.rs_bch ~n:10 ~k:7));
        Alcotest.(check (float 1e-9))
          "replication" 5.
          (overhead (Mds.rs_bch ~n:5 ~k:1)));
    Alcotest.test_case "names" `Quick (fun () ->
        Alcotest.(check string) "bch" "rs-bch[9,3]"
          (Mds.name (Mds.rs_bch ~n:9 ~k:3));
        Alcotest.(check string) "bch16" "rs-bch16[9,5]"
          (Mds.name (Mds.rs_bch16 ~n:9 ~k:5)));
    Alcotest.test_case "Mds.decode converts exceptions" `Quick (fun () ->
        let code = Mds.rs_bch ~n:6 ~k:4 in
        let v = Bytes.of_string "abc" in
        let frags = Mds.encode code v in
        Alcotest.check_raises "insufficient"
          (Mds.Insufficient_fragments { needed = 4; got = 1 })
          (fun () -> ignore (Mds.decode code [ frags.(0) ])));
    qtest "Mds.fragment_size matches actual fragments"
      QCheck2.Gen.(
        int_range 1 30 >>= fun n ->
        int_range 1 n >>= fun k ->
        pair bytes_gen bool >|= fun (v, rs) -> (n, k, v, rs))
      (fun (n, k, v, rs) ->
        (* rs_bch16 is checked in the rs16 group *)
        let code = Mds.rs_bch ~n ~k:(if rs then k else 1) in
        let frags = Mds.encode code v in
        Array.for_all
          (fun f ->
            Fragment.size f
            = Mds.fragment_size code ~value_len:(Bytes.length v))
          frags);
    qtest "corrupt changes every byte and keeps the index"
      QCheck2.Gen.(
        pair (string_size (int_range 1 100) >|= Bytes.of_string)
          (int_range 0 1000))
      (fun (data, seed) ->
        let f = Fragment.make ~index:3 ~data in
        let g = Fragment.corrupt f ~seed in
        Fragment.index g = 3
        && Fragment.size g = Fragment.size f
        && (let differs = ref true in
            for i = 0 to Bytes.length data - 1 do
              if Bytes.get (Fragment.data g) i = Bytes.get data i then
                differs := false
            done;
            !differs));
    qtest "corrupt is deterministic in (fragment, seed)"
      QCheck2.Gen.(
        (* >= 8 bytes so two seeds' masks cannot collide by chance *)
        pair (string_size (int_range 8 100) >|= Bytes.of_string)
          (int_range 0 1000))
      (fun (data, seed) ->
        (* the nemesis replays corruption from a schedule-derived seed,
           so equal inputs must garble identically — and a different
           seed must not produce the same garbage *)
        let f = Fragment.make ~index:3 ~data in
        let data seed = Fragment.data (Fragment.corrupt f ~seed) in
        Bytes.equal (data seed) (data seed)
        && not (Bytes.equal (data seed) (data (seed + 1))))
  ]

(* ------------------------------------------------------------------ *)
(* Fragment-index validation: every codec rejects out-of-range indices
   with a clear Invalid_argument. The codecs also guard [i < 0]
   defensively; a negative index cannot be built through Fragment.make
   (tested below), so the high side is what we can exercise end-to-end. *)

let index_validation_tests =
  let raises_invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  let value = Bytes.of_string "index validation payload" in
  [ Alcotest.test_case "Fragment.make rejects negative indices" `Quick
      (fun () ->
        Alcotest.(check bool)
          "negative index" true
          (raises_invalid (fun () ->
               Fragment.make ~index:(-1) ~data:(Bytes.create 4))));
    Alcotest.test_case "decoders reject out-of-range indices" `Quick
      (fun () ->
        let check_oob name decode =
          (* index n is one past the last valid fragment *)
          let bogus = Fragment.make ~index:6 ~data:(Bytes.create 8) in
          Alcotest.(check bool)
            (name ^ " rejects index n")
            true
            (raises_invalid (fun () -> decode [ bogus ]))
        in
        check_oob "bch" (fun frags ->
            ignore (Rs_bch.decode (Rs_bch.make ~n:6 ~k:3) frags));
        check_oob "bch16" (fun frags ->
            ignore (Rs_bch16.decode (Rs_bch16.make ~n:6 ~k:3) frags)));
    Alcotest.test_case "decoders reject ragged fragment sizes" `Quick
      (fun () ->
        let ragged frags =
          (* k fragments, the last one a byte short *)
          List.init 3 (fun i ->
              let f = frags.(i) in
              if i < 2 then f
              else
                Fragment.make ~index:i
                  ~data:(Bytes.sub (Fragment.data f) 0 (Fragment.size f - 1)))
        in
        let code = Rs_bch.make ~n:6 ~k:3 in
        Alcotest.(check bool) "bch" true
          (raises_invalid (fun () ->
               Rs_bch.decode code (ragged (Rs_bch.encode code value))));
        let code = Rs_bch16.make ~n:6 ~k:3 in
        Alcotest.(check bool) "bch16" true
          (raises_invalid (fun () ->
               Rs_bch16.decode code (ragged (Rs_bch16.encode code value)))));
    Alcotest.test_case "in-range indices still decode" `Quick (fun () ->
        let code = Rs_bch.make ~n:6 ~k:3 in
        let frags = Array.to_list (Rs_bch.encode code value) in
        Alcotest.(check bool)
          "round-trip" true
          (Bytes.equal value (Rs_bch.decode code frags));
        let code = Rs_bch16.make ~n:6 ~k:3 in
        let frags = Array.to_list (Rs_bch16.encode code value) in
        Alcotest.(check bool)
          "round-trip (GF(2^16))" true
          (Bytes.equal value (Rs_bch16.decode code frags)))
  ]

(* ------------------------------------------------------------------ *)
(* Splitter edge cases: empty value, lengths exactly filling the last
   stripe, and corrupt-header rejection. *)

let splitter_edge_tests =
  let raises_invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  [ Alcotest.test_case "empty value round-trips at any k" `Quick (fun () ->
        List.iter
          (fun k ->
            let framed = Splitter.frame ~k Bytes.empty in
            Alcotest.(check int)
              (Printf.sprintf "padded length k=%d" k)
              ((4 + k - 1) / k * k)
              (Bytes.length framed);
            Alcotest.(check bool)
              (Printf.sprintf "round-trip k=%d" k)
              true
              (Bytes.equal Bytes.empty (Splitter.unframe framed)))
          [ 1; 2; 3; 4; 5; 7; 16 ]);
    Alcotest.test_case "value length an exact multiple of k" `Quick (fun () ->
        (* header + value exactly fills the stripes: no padding bytes *)
        List.iter
          (fun k ->
            let len = (3 * k) - 4 in
            if len >= 0 then begin
              let v = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
              let framed = Splitter.frame ~k v in
              Alcotest.(check int)
                (Printf.sprintf "no padding k=%d" k)
                (4 + len) (Bytes.length framed);
              Alcotest.(check bool)
                (Printf.sprintf "round-trip k=%d" k)
                true
                (Bytes.equal v (Splitter.unframe framed))
            end)
          [ 2; 4; 5; 8; 13 ]);
    Alcotest.test_case "corrupt length headers are rejected" `Quick (fun () ->
        (* too-large length *)
        let framed = Splitter.frame ~k:4 (Bytes.of_string "hello") in
        let corrupt = Bytes.copy framed in
        Bytes.set_int32_be corrupt 0 1000l;
        Alcotest.(check bool)
          "oversized length" true
          (raises_invalid (fun () -> Splitter.unframe corrupt));
        (* negative length *)
        let negative = Bytes.copy framed in
        Bytes.set_int32_be negative 0 (-5l);
        Alcotest.(check bool)
          "negative length" true
          (raises_invalid (fun () -> Splitter.unframe negative));
        (* shorter than the header itself *)
        Alcotest.(check bool)
          "short buffer" true
          (raises_invalid (fun () -> Splitter.unframe (Bytes.create 3))))
  ]

(* ------------------------------------------------------------------ *)
(* Check-gated BCH decode against the all-stripes oracle: [decode] and
   [decode_reference] must agree on every input — the same bytes, or
   the same exception (Invalid_argument compared by constructor only:
   the two frame parsers word their messages differently). *)

module type BCH = sig
  type t

  exception Insufficient_fragments of { needed : int; got : int }
  exception Decode_failure of string

  val make : n:int -> k:int -> t
  val encode : t -> bytes -> Fragment.t array
  val decode : t -> Fragment.t list -> bytes
  val decode_reference : t -> Fragment.t list -> bytes
end

type bch_case = {
  wide : bool;  (** GF(2^16) instead of GF(2^8) *)
  n : int;
  k : int;
  value : bytes;
  order : int array;  (** permutation of the indices *)
  erasures : int;  (** the first [erasures] of [order] are dropped *)
  errors : int;  (** the next [errors] are corrupted *)
  mode : [ `Stripe | `Whole | `Mixed ];
      (** corrupt one stripe of each corrupted fragment, or each whole,
          or the first whole and the others one stripe each *)
  dups : int list;  (** positions (in the received list) to duplicate *)
  seed : int;
}

let bch_case_gen =
  QCheck2.Gen.(
    bool >>= fun wide ->
    int_range 2 16 >>= fun n ->
    int_range 1 n >>= fun k ->
    let budget = n - k in
    (* a third of the cases decode from exactly k fragments *)
    frequency [ (1, pure budget); (2, int_range 0 budget) ] >>= fun erasures ->
    let present = n - erasures in
    (* up to two corruptions past the correction radius *)
    int_range 0 (min present (((budget - erasures) / 2) + 2)) >>= fun errors ->
    oneofl [ `Stripe; `Whole; `Mixed ] >>= fun mode ->
    subset_gen ~n n >>= fun order ->
    int_range 0 2 >>= fun ndups ->
    list_repeat ndups (int_range 0 (present - 1)) >>= fun dups ->
    int_range 0 1_000_000 >>= fun seed ->
    bytes_gen >|= fun value ->
    { wide; n; k; value; order; erasures; errors; mode; dups; seed })

(* Corrupt exactly one symbol: XOR the nonzero [mask] into byte [pos]. *)
let corrupt_byte f ~pos ~mask =
  let data = Bytes.copy (Fragment.data f) in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor mask));
  Fragment.make ~index:(Fragment.index f) ~data

let corrupt_one_stripe f ~seed =
  corrupt_byte f ~pos:(seed mod Fragment.size f) ~mask:(1 + (seed mod 255))

let received_word c frags =
  let base =
    List.init (c.n - c.erasures) (fun p ->
        let i = c.order.(c.erasures + p) in
        let f = frags.(i) in
        if p >= c.errors then f
        else
          match c.mode with
          | `Whole -> Fragment.corrupt f ~seed:(c.seed + p)
          | `Mixed when p = 0 -> Fragment.corrupt f ~seed:(c.seed + p)
          | `Stripe | `Mixed -> corrupt_one_stripe f ~seed:(c.seed + (7919 * p)))
  in
  (* duplicates: an extra copy of a received fragment, sometimes
     garbled, sometimes put ahead of the original (first seen wins) *)
  List.fold_left
    (fun acc p ->
      let f = List.nth base p in
      let dup = if p land 1 = 0 then f else Fragment.corrupt f ~seed:c.seed in
      if c.seed land 1 = 0 then dup :: acc else acc @ [ dup ])
    base c.dups

(* The outcomes of [decode] and [decode_reference] on one received
   word: the bytes, or the exception with its message. *)
let bch_outcomes (type c) (module C : BCH with type t = c) (code : c) received =
  let outcome decode =
    match decode () with
    | v -> Ok v
    | exception C.Insufficient_fragments { needed; got } ->
      Error (Printf.sprintf "Insufficient_fragments %d %d" needed got)
    | exception C.Decode_failure msg -> Error ("Decode_failure " ^ msg)
    | exception Invalid_argument _ -> Error "Invalid_argument"
  in
  ( outcome (fun () -> C.decode code received),
    outcome (fun () -> C.decode_reference code received) )

let same_outcome = function
  | Ok a, Ok b -> Bytes.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let describe = function Ok _ -> "returned" | Error e -> e

let bch_differential (type c) (module C : BCH with type t = c) c =
  let code = C.make ~n:c.n ~k:c.k in
  let frags = C.encode code c.value in
  let received = received_word c frags in
  let snapshot = List.map Fragment.data received in
  let fast, reference = bch_outcomes (module C) code received in
  if not (same_outcome (fast, reference)) then
    QCheck2.Test.fail_reportf "decode %s, reference %s" (describe fast)
      (describe reference);
  (* decode reads fragments in place and must not write through them *)
  List.for_all2 Bytes.equal snapshot (List.map Fragment.data received)

(* Deterministic rs-bch[12,6] words for every branch of [decode]: a
   located fragment (the second sweep clears every stripe), a located
   fragment plus strays (the per-stripe fallback runs), errors past the
   radius (the first corrected stripe raises), and single symbols at
   both ends of a multi-block value (the second sweep's span). *)
let code_12_6 = Rs_bch.make ~n:12 ~k:6

let bch_value len =
  Bytes.init len (fun i -> Char.chr (((i * 131) + (i / 7)) land 0xff))

(* All of [frags] but the [erased] indices, with [corrupt] applied:
   [`Whole seed] garbles every symbol, [`At pos] one byte, [`Odd] the
   symbol of every odd stripe. *)
let bch_received frags ~erased ~corrupt =
  Array.to_list frags
  |> List.filter (fun f -> not (List.mem (Fragment.index f) erased))
  |> List.map (fun f ->
         match List.assoc_opt (Fragment.index f) corrupt with
         | None -> f
         | Some (`Whole seed) -> Fragment.corrupt f ~seed
         | Some (`At pos) -> corrupt_byte f ~pos ~mask:0x3c
         | Some `Odd ->
           let data = Bytes.copy (Fragment.data f) in
           for pos = 0 to (Bytes.length data / 2) - 1 do
             let pos = (2 * pos) + 1 in
             Bytes.set data pos
               (Char.chr (Char.code (Bytes.get data pos) lxor 0xa7))
           done;
           Fragment.make ~index:(Fragment.index f) ~data)

(* [decode] agrees with [decode_reference] and, within the radius,
   returns [v]. *)
let check_agrees label v (fast, reference) =
  Alcotest.(check string) label (describe reference) (describe fast);
  Alcotest.(check bool) (label ^ ": same bytes") true
    (same_outcome (fast, reference));
  match reference with
  | Ok r -> Alcotest.(check bool) (label ^ ": the value") true (Bytes.equal v r)
  | Error _ -> ()

let bch_agrees label v received =
  check_agrees label v (bch_outcomes (module Rs_bch) code_12_6 received)

let bch_12_6_cases () =
  let n = 12 in
  let v = bch_value 3000 in
  let frags = Rs_bch.encode code_12_6 v in
  let size = Fragment.size frags.(0) in
  for i = 0 to n - 1 do
    bch_agrees (Printf.sprintf "index %d whole" i) v
      (bch_received frags ~erased:[] ~corrupt:[ (i, `Whole i) ]);
    bch_agrees (Printf.sprintf "index %d whole, two erased" i) v
      (bch_received frags
         ~erased:[ (i + 1) mod n; (i + 5) mod n ]
         ~corrupt:[ (i, `Whole i) ]);
    bch_agrees (Printf.sprintf "index %d whole + stray stripe" i) v
      (bch_received frags ~erased:[]
         ~corrupt:[ (i, `Whole i); ((i + 3) mod n, `At (size / 2)) ]);
    for j = i + 1 to n - 1 do
      bch_agrees (Printf.sprintf "indices %d, %d whole" i j) v
        (bch_received frags ~erased:[] ~corrupt:[ (i, `Whole i); (j, `Whole j) ])
    done
  done;
  (* 2 * 3 errors + 1 erasure > n - k *)
  let past = bch_received frags ~erased:[ 0 ]
      ~corrupt:[ (3, `Whole 3); (7, `Whole 7); (10, `Whole 10) ]
  in
  bch_agrees "three whole, past the radius" v past;
  (match bch_outcomes (module Rs_bch) code_12_6 past with
  | _, Error e when String.starts_with ~prefix:"Decode_failure" e -> ()
  | _, r -> Alcotest.failf "past the radius: reference %s" (describe r));
  (* 10,923 stripes, three sweep blocks; the header and the value fill
     the last stripe, so no corrupted symbol hides in the padding *)
  let v = bch_value 65_534 in
  let frags = Rs_bch.encode code_12_6 v in
  let last = Fragment.size frags.(0) - 1 in
  bch_agrees "first and last stripe, two fragments" v
    (bch_received frags ~erased:[] ~corrupt:[ (7, `At 0); (10, `At last) ]);
  bch_agrees "first and last stripe, one fragment" v
    (bch_received frags ~erased:[ 2 ] ~corrupt:[ (9, `At 0) ]
     |> List.map (fun f ->
            if Fragment.index f = 9 then corrupt_byte f ~pos:last ~mask:0x81
            else f))

let bch_differential_tests =
  [ qtest ~count:500 "decode = decode_reference (GF(2^8) and GF(2^16))"
      bch_case_gen
      (fun c ->
        if c.wide then bch_differential (module Rs_bch16) c
        else bch_differential (module Rs_bch) c);
    Alcotest.test_case "clean, single-stripe and whole-fragment errors"
      `Quick (fun () ->
        let n = 12 and k = 8 in
        let v = Bytes.init 5000 (fun i -> Char.chr ((i * 37) land 0xff)) in
        let code = Rs_bch.make ~n ~k in
        let frags = Array.to_list (Rs_bch.encode code v) in
        (* k + 2 fragments, two systematic ones missing *)
        let keep = List.filteri (fun i _ -> i < n - 2) frags in
        let decoded fs = Bytes.equal v (Rs_bch.decode code fs) in
        Alcotest.(check bool) "clean" true (decoded keep);
        Alcotest.(check bool)
          "one corrupted stripe" true
          (decoded
             (List.mapi
                (fun i f -> if i = 5 then corrupt_one_stripe f ~seed:123 else f)
                keep));
        Alcotest.(check bool)
          "one corrupted fragment" true
          (decoded
             (List.mapi
                (fun i f -> if i = 1 then Fragment.corrupt f ~seed:9 else f)
                keep)));
    Alcotest.test_case "rs-bch[12,6]: located fragments, strays, past radius"
      `Quick (fun () -> bch_12_6_cases ());
    Alcotest.test_case "rs-bch[12,6]: 96 KiB over 3 domains" `Quick
      (fun () ->
        (* the three decodes run at once, one per domain, on one shared
           code value; each must still match its reference *)
        let v = bch_value 98_304 in
        let frags = Rs_bch.encode code_12_6 v in
        let size = Fragment.size frags.(0) in
        let cases =
          [ ( "whole fragment + stray stripe",
              bch_received frags ~erased:[ 1 ]
                ~corrupt:[ (8, `Whole 5); (10, `At (2 * size / 3)) ] );
            (* ~8k stripes stay dirty, so the per-stripe fallback runs
               over most of a multi-block value *)
            ( "whole fragment + every odd stripe",
              bch_received frags ~erased:[]
                ~corrupt:[ (8, `Whole 5); (10, `Odd) ] );
            ( "two erased + whole fragment",
              bch_received frags ~erased:[ 0; 6 ] ~corrupt:[ (3, `Whole 3) ] )
          ]
        in
        let outcomes =
          Harness.Parallel.map ~domains:3
            (fun (_, received) ->
              bch_outcomes (module Rs_bch) code_12_6 received)
            cases
        in
        List.iter2
          (fun (label, _) outcome -> check_agrees label v outcome)
          cases outcomes)
  ]

let () =
  Alcotest.run "erasure"
    [ ("splitter", splitter_tests);
      ("splitter-edge", splitter_edge_tests);
      ("index-validation", index_validation_tests);
      ("rs-vandermonde", vand_tests);
      ("rs-bch", bch_tests);
      ("rs-systematic", sys_tests);
      ("rs16", rs16_tests);
      ("rs-bch16", bch16_tests);
      ("bch-differential", bch_differential_tests);
      ("mds", mds_tests)
    ]
