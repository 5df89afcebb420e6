(* Tests for the GF(2^8) field, polynomial and matrix substrates. *)

module Gf = Galois.Gf
module Poly = Galois.Poly_gen.Make (Gf)
module Matrix = Galois.Matrix_gen.Make (Gf)

let gf_gen = QCheck2.Gen.int_range 0 255
let gf_nonzero_gen = QCheck2.Gen.int_range 1 255

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Field axioms *)

let field_tests =
  [ qtest "add commutative" QCheck2.Gen.(pair gf_gen gf_gen) (fun (a, b) ->
        Gf.add a b = Gf.add b a);
    qtest "add associative"
      QCheck2.Gen.(triple gf_gen gf_gen gf_gen)
      (fun (a, b, c) -> Gf.add (Gf.add a b) c = Gf.add a (Gf.add b c));
    qtest "add identity" gf_gen (fun a -> Gf.add a Gf.zero = a);
    qtest "add self-inverse" gf_gen (fun a -> Gf.add a a = Gf.zero);
    qtest "mul commutative" QCheck2.Gen.(pair gf_gen gf_gen) (fun (a, b) ->
        Gf.mul a b = Gf.mul b a);
    qtest "mul associative"
      QCheck2.Gen.(triple gf_gen gf_gen gf_gen)
      (fun (a, b, c) -> Gf.mul (Gf.mul a b) c = Gf.mul a (Gf.mul b c));
    qtest "mul identity" gf_gen (fun a -> Gf.mul a Gf.one = a);
    qtest "mul zero annihilates" gf_gen (fun a -> Gf.mul a Gf.zero = Gf.zero);
    qtest "distributivity"
      QCheck2.Gen.(triple gf_gen gf_gen gf_gen)
      (fun (a, b, c) ->
        Gf.mul a (Gf.add b c) = Gf.add (Gf.mul a b) (Gf.mul a c));
    qtest "mul matches reference mul_slow"
      QCheck2.Gen.(pair gf_gen gf_gen)
      (fun (a, b) -> Gf.mul a b = Gf.mul_slow a b);
    qtest "inverse" gf_nonzero_gen (fun a -> Gf.mul a (Gf.inv a) = Gf.one);
    qtest "division" QCheck2.Gen.(pair gf_gen gf_nonzero_gen) (fun (a, b) ->
        Gf.mul (Gf.div a b) b = a);
    qtest "log/exp round-trip" gf_nonzero_gen (fun a ->
        (* every non-zero element is alpha^e for some e in [0, 254], and
           division through the log table undoes multiplication *)
        List.exists (fun e -> Gf.alpha_pow e = a) (List.init 255 Fun.id)
        && Gf.div (Gf.mul a 2) a = 2);
    qtest "pow adds exponents"
      QCheck2.Gen.(pair (int_range (-300) 300) (int_range (-300) 300))
      (fun (i, j) ->
        Gf.mul (Gf.alpha_pow i) (Gf.alpha_pow j) = Gf.alpha_pow (i + j));
    Alcotest.test_case "alpha is primitive (order 255)" `Quick (fun () ->
        (* alpha^m = 1 only at multiples of 255. *)
        for m = 1 to 254 do
          Alcotest.(check bool)
            (Printf.sprintf "alpha^%d <> 1" m)
            false
            (Gf.alpha_pow m = Gf.one)
        done;
        Alcotest.(check int) "alpha^255 = 1" Gf.one (Gf.alpha_pow 255));
    Alcotest.test_case "of_int validates range" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Gf.mul_table: -1 out of range [0, 255]")
          (fun () -> ignore (Gf.mul_table (-1)));
        Alcotest.(check int) "valid" 77
          (Char.code (Bytes.get (Gf.mul_table 77) 1)));
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "div" Division_by_zero (fun () ->
            ignore (Gf.div 3 0));
        Alcotest.check_raises "inv" Division_by_zero (fun () ->
            ignore (Gf.inv 0)));
    Alcotest.test_case "pow edge cases" `Quick (fun () ->
        Alcotest.(check int) "alpha^0 = 1" Gf.one (Gf.alpha_pow 0);
        Alcotest.(check int) "alpha^-1 = inv alpha" (Gf.inv 2)
          (Gf.alpha_pow (-1));
        Alcotest.(check int) "alpha^-255 = 1" Gf.one (Gf.alpha_pow (-255)))
  ]

(* ------------------------------------------------------------------ *)
(* Polynomials *)

let poly_gen =
  QCheck2.Gen.(list_size (int_range 0 12) gf_gen >|= Poly.of_list)

let poly_nonzero_gen =
  QCheck2.Gen.(
    poly_gen >>= fun p ->
    if Poly.is_zero p then gf_nonzero_gen >|= fun c -> Poly.of_list [ c ]
    else return p)

let poly_tests =
  [ qtest "add commutative" QCheck2.Gen.(pair poly_gen poly_gen)
      (fun (p, q) -> Poly.equal (Poly.add p q) (Poly.add q p));
    qtest "add self cancels" poly_gen (fun p ->
        Poly.is_zero (Poly.add p p));
    qtest "mul commutative" QCheck2.Gen.(pair poly_gen poly_gen)
      (fun (p, q) -> Poly.equal (Poly.mul p q) (Poly.mul q p));
    qtest "mul distributes over add"
      QCheck2.Gen.(triple poly_gen poly_gen poly_gen)
      (fun (p, q, r) ->
        Poly.equal
          (Poly.mul p (Poly.add q r))
          (Poly.add (Poly.mul p q) (Poly.mul p r)));
    qtest "mul degree adds"
      QCheck2.Gen.(pair poly_nonzero_gen poly_nonzero_gen)
      (fun (p, q) ->
        Poly.degree (Poly.mul p q) = Poly.degree p + Poly.degree q);
    qtest "div_mod identity"
      QCheck2.Gen.(pair poly_gen poly_nonzero_gen)
      (fun (num, den) ->
        let q, r = Poly.div_mod num den in
        Poly.equal num (Poly.add (Poly.mul q den) r)
        && Poly.degree r < Poly.degree den);
    qtest "eval is a ring morphism at any point"
      QCheck2.Gen.(triple poly_gen poly_gen gf_gen)
      (fun (p, q, x) ->
        Gf.add (Poly.eval p x) (Poly.eval q x)
        = Poly.eval (Poly.add p q) x
        && Gf.mul (Poly.eval p x) (Poly.eval q x)
           = Poly.eval (Poly.mul p q) x);
    qtest "derivative of p^2 vanishes" poly_gen (fun p ->
        (* In characteristic 2, (p^2)' = 2 p p' = 0. *)
        Poly.is_zero (Poly.derivative (Poly.mul p p)));
    qtest "product rule"
      QCheck2.Gen.(pair poly_gen poly_gen)
      (fun (p, q) ->
        Poly.equal
          (Poly.derivative (Poly.mul p q))
          (Poly.add
             (Poly.mul (Poly.derivative p) q)
             (Poly.mul p (Poly.derivative q))));
    Alcotest.test_case "normalization trims trailing zeros" `Quick (fun () ->
        let p = Poly.of_list [ 1; 2; 0; 0 ] in
        Alcotest.(check int) "degree" 1 (Poly.degree p);
        Alcotest.(check bool) "zero poly" true
          (Poly.is_zero (Poly.of_list [ 0; 0 ])));
    Alcotest.test_case "monomial" `Quick (fun () ->
        let p = Poly.monomial 3 5 in
        Alcotest.(check int) "degree" 3 (Poly.degree p);
        Alcotest.(check int) "coeff" 5 (Poly.coeff p 3);
        Alcotest.(check bool) "zero coefficient gives zero poly" true
          (Poly.is_zero (Poly.monomial 4 0)));
    Alcotest.test_case "truncate" `Quick (fun () ->
        let p = Poly.of_list [ 1; 2; 3; 4 ] in
        let q = Poly.truncate 2 p in
        Alcotest.(check int) "degree" 1 (Poly.degree q);
        Alcotest.(check int) "c0" 1 (Poly.coeff q 0);
        Alcotest.(check int) "c1" 2 (Poly.coeff q 1));
    Alcotest.test_case "div by zero raises" `Quick (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Poly.div_mod Poly.one Poly.zero)))
  ]

let interpolation_tests =
  [ qtest ~count:300 "interpolation recovers the original polynomial"
      QCheck2.Gen.(
        poly_gen >>= fun p ->
        let d = max 1 (Poly.degree p + 1) in
        (* evaluate at d distinct points: alpha^0 .. alpha^(d-1) *)
        return (p, Array.init d (fun i -> Gf.alpha_pow i)))
      (fun (p, xs) ->
        let points = Array.map (fun x -> (x, Poly.eval p x)) xs in
        Poly.equal (Poly.interpolate points) p);
    qtest ~count:300 "interpolant passes through every point"
      QCheck2.Gen.(
        int_range 1 10 >>= fun d ->
        array_size (return d) gf_gen >|= fun ys ->
        Array.mapi (fun i y -> (Gf.alpha_pow i, y)) ys)
      (fun points ->
        let p = Poly.interpolate points in
        Poly.degree p < Array.length points
        && Array.for_all (fun (x, y) -> Poly.eval p x = y) points);
    Alcotest.test_case "duplicate abscissae rejected" `Quick (fun () ->
        Alcotest.(check bool) "rejected" true
          (match Poly.interpolate [| (3, 1); (3, 2) |] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    qtest ~count:100
      "interpolation decodes Reed-Solomon like the matrix decoder"
      QCheck2.Gen.(
        int_range 1 8 >>= fun k ->
        int_range k 20 >>= fun n ->
        array_size (return k) gf_gen >>= fun message ->
        shuffle_a (Array.init n (fun i -> i)) >|= fun perm ->
        (n, k, message, Array.sub perm 0 k))
      (fun (_, k, message, indices) ->
        (* encode one stripe with the Vandermonde code: c_i = m(alpha^i);
           decoding via interpolation must recover the message poly *)
        let m = Poly.of_coeffs message in
        let points =
          Array.map (fun i -> (Gf.alpha_pow i, Poly.eval m (Gf.alpha_pow i))) indices
        in
        let recovered = Poly.interpolate points in
        Array.for_all
          (fun j -> Poly.coeff recovered j = Poly.coeff m j)
          (Array.init k (fun j -> j)))
  ]

(* ------------------------------------------------------------------ *)
(* Matrices *)

let square_matrix_gen dim =
  QCheck2.Gen.(
    array_size (return (dim * dim)) gf_gen >|= fun a ->
    Matrix.create ~rows:dim ~cols:dim (fun i j -> a.((i * dim) + j)))

let matrix_tests =
  [ qtest ~count:200 "inverse (when it exists) multiplies to identity"
      QCheck2.Gen.(int_range 1 6 >>= square_matrix_gen)
      (fun m ->
        match Matrix.invert m with
        | inv ->
          Matrix.equal (Matrix.mul m inv) (Matrix.identity (Matrix.rows m))
          && Matrix.equal (Matrix.mul inv m)
               (Matrix.identity (Matrix.rows m))
        | exception Matrix.Singular -> Matrix.rank m < Matrix.rows m);
    qtest ~count:100 "any k rows of a Vandermonde matrix are independent"
      QCheck2.Gen.(
        int_range 1 8 >>= fun k ->
        int_range k 24 >>= fun n ->
        (* a random k-subset of rows *)
        let* perm = shuffle_a (Array.init n (fun i -> i)) in
        return (n, k, Array.sub perm 0 k))
      (fun (n, k, rows) ->
        let v = Matrix.create ~rows:n ~cols:k (fun i j -> Gf.alpha_pow (i * j)) in
        Matrix.rank (Matrix.select_rows v rows) = k);
    Alcotest.test_case "identity properties" `Quick (fun () ->
        let i3 = Matrix.identity 3 in
        let m =
          Matrix.of_rows [| [| 1; 2; 3 |]; [| 4; 5; 6 |]; [| 7; 8; 9 |] |]
        in
        Alcotest.(check bool) "I*m = m" true (Matrix.equal (Matrix.mul i3 m) m);
        Alcotest.(check bool) "m*I = m" true (Matrix.equal (Matrix.mul m i3) m));
    Alcotest.test_case "singular matrix raises" `Quick (fun () ->
        let m = Matrix.of_rows [| [| 1; 2 |]; [| 1; 2 |] |] in
        Alcotest.check_raises "invert" Matrix.Singular (fun () ->
            ignore (Matrix.invert m));
        Alcotest.(check int) "rank" 1 (Matrix.rank m));
    Alcotest.test_case "ragged input rejected" `Quick (fun () ->
        Alcotest.check_raises "ragged"
          (Invalid_argument "Matrix.of_rows: ragged") (fun () ->
            ignore (Matrix.of_rows [| [| 1 |]; [| 1; 2 |] |])))
  ]

(* ------------------------------------------------------------------ *)
(* GF(2^16) *)

module Gf16 = Galois.Gf16
module Matrix16 = Galois.Matrix_gen.Make (Gf16)

let gf16_gen = QCheck2.Gen.int_range 0 65535
let gf16_nonzero_gen = QCheck2.Gen.int_range 1 65535

let gf16_tests =
  [ qtest "field axioms hold"
      QCheck2.Gen.(triple gf16_gen gf16_gen gf16_gen)
      (fun (a, b, c) ->
        Gf16.add a b = Gf16.add b a
        && Gf16.mul a b = Gf16.mul b a
        && Gf16.mul (Gf16.mul a b) c = Gf16.mul a (Gf16.mul b c)
        && Gf16.mul a (Gf16.add b c) = Gf16.add (Gf16.mul a b) (Gf16.mul a c)
        && Gf16.add a a = Gf16.zero
        && Gf16.mul a Gf16.one = a);
    qtest "mul matches reference mul_slow"
      QCheck2.Gen.(pair gf16_gen gf16_gen)
      (fun (a, b) -> Gf16.mul a b = Gf16.mul_slow a b);
    qtest "inverse and division" QCheck2.Gen.(pair gf16_gen gf16_nonzero_gen)
      (fun (a, b) ->
        Gf16.mul b (Gf16.inv b) = Gf16.one
        && Gf16.mul (Gf16.div a b) b = a);
    qtest ~count:20 "log/exp round-trip" gf16_nonzero_gen (fun a ->
        List.exists (fun e -> Gf16.alpha_pow e = a) (List.init 65535 Fun.id)
        && Gf16.div (Gf16.mul a 2) a = 2);
    qtest "pow adds exponents"
      QCheck2.Gen.(pair (int_range (-100_000) 100_000) (int_range (-100_000) 100_000))
      (fun (i, j) ->
        Gf16.mul (Gf16.alpha_pow i) (Gf16.alpha_pow j) = Gf16.alpha_pow (i + j));
    Alcotest.test_case "alpha has full order 65535" `Quick (fun () ->
        (* order divides 65535 = 3 * 5 * 17 * 257: checking the maximal
           proper divisors suffices *)
        List.iter
          (fun d ->
            Alcotest.(check bool)
              (Printf.sprintf "alpha^%d <> 1" d)
              false
              (Gf16.alpha_pow d = Gf16.one))
          [ 65535 / 3; 65535 / 5; 65535 / 17; 65535 / 257 ];
        Alcotest.(check int) "alpha^65535 = 1" Gf16.one (Gf16.alpha_pow 65535));
    Alcotest.test_case "edge cases" `Quick (fun () ->
        Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
            ignore (Gf16.inv 0));
        Alcotest.(check int) "alpha^0" 1 (Gf16.alpha_pow 0);
        Alcotest.(check bool) "mul_tables validates" true
          (match Gf16.mul_tables 70000 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    qtest ~count:100 "generic matrices invert over GF(2^16)"
      QCheck2.Gen.(
        int_range 1 5 >>= fun d ->
        array_size (return (d * d)) gf16_gen >|= fun a -> (d, a))
      (fun (d, a) ->
        let m = Matrix16.create ~rows:d ~cols:d (fun i j -> a.((i * d) + j)) in
        match Matrix16.invert m with
        | inv -> Matrix16.equal (Matrix16.mul m inv) (Matrix16.identity d)
        | exception Matrix16.Singular -> Matrix16.rank m < d);
    qtest ~count:50 "large Vandermonde row subsets stay independent"
      QCheck2.Gen.(
        int_range 1 6 >>= fun k ->
        int_range 256 1000 >>= fun n ->
        shuffle_a (Array.init n (fun i -> i)) >|= fun perm ->
        (n, k, Array.sub perm 0 k))
      (fun (n, k, rows) ->
        (* the whole point of GF(2^16): n beyond 255 *)
        let v =
          Matrix16.create ~rows:n ~cols:k (fun i j -> Gf16.alpha_pow (i * j))
        in
        Matrix16.rank (Matrix16.select_rows v rows) = k)
  ]

let () =
  Alcotest.run "galois"
    [ ("field", field_tests); ("poly", poly_tests);
      ("interpolation", interpolation_tests); ("matrix", matrix_tests);
      ("gf16", gf16_tests)
    ]
