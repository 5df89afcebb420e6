(* Field-generic systematic Reed-Solomon with errors-and-erasures
   decoding; documented in rs_bch.mli. [Rs_bch] instantiates this at
   GF(2^8) (one-byte symbols), [Rs_bch16] at GF(2^16) (two-byte
   symbols, for code lengths beyond 255). Every instance raises the
   two exceptions below, so [Mds] passes them through unchanged. *)

exception Insufficient_fragments of { needed : int; got : int }
exception Decode_failure of string

module Make (Sym : Symbol.S) = struct
  module F = Sym.F
  module Poly = Galois.Poly_gen.Make (F)
  module Matrix = Galois.Matrix_gen.Make (F)

  type t = { n : int; k : int; parity_rows : F.t array array }

  exception Insufficient_fragments = Insufficient_fragments
  exception Decode_failure = Decode_failure

  (* g(x) = prod_{j=1}^{n-k} (x - alpha^j); narrow-sense BCH roots. *)
  let generator_poly ~n ~k =
    let g = ref Poly.one in
    for j = 1 to n - k do
      g := Poly.mul !g (Poly.of_list [ F.alpha_pow j; F.one ])
    done;
    !g

  (* Systematic encoding — message symbol j at coefficient x^(n-k+j),
     parity at coefficients 0 .. n-k-1 — is linear in the message, so
     parity symbol i is a fixed row of coefficients over the message:
     parity_rows.(i).(j) = coeff i of (x^(n-k+j) mod g). Precomputing
     the matrix turns per-stripe polynomial division into table-driven
     buffer sweeps. *)
  let parity_matrix ~n ~k g =
    let parity_len = n - k in
    let rems =
      Array.init k (fun j ->
          Poly.rem (Poly.monomial (parity_len + j) F.one) g)
    in
    Array.init parity_len (fun i ->
        Array.init k (fun j -> Poly.coeff rems.(j) i))

  let make ~n ~k =
    if k < 1 || k > n || n > Sym.max_n then
      invalid_arg
        (Printf.sprintf "Rs_bch.make: invalid parameters n=%d k=%d" n k);
    let generator = generator_poly ~n ~k in
    { n; k; parity_rows = parity_matrix ~n ~k generator }

  let n t = t.n
  let k t = t.k
  let bps = Sym.bytes_per_symbol

  (* Row [i] of the systematic generator: coordinate [i] of a codeword
     is [generator_row t i] applied to the message columns — a parity
     row for [i < n-k], the unit row of message column [i - (n-k)]
     otherwise. *)
  let generator_row t i =
    let parity_len = t.n - t.k in
    if i < parity_len then t.parity_rows.(i)
    else
      Array.init t.k (fun j -> if j = i - parity_len then F.one else F.zero)

  let row_tables rows = Array.map (Array.map Sym.mul_table) rows

  (* Row application over views:
     dst[doff+off, +len) = sum_j coeffs.(j) * srcs.(j)[soffs.(j)+off, +len),
     with [tables] the coefficients' tables and every offset and [len] in
     bytes. One sweep per non-zero coefficient; unit coefficients degrade
     to a blit (first term) or an 8-byte-wide xor. The sweeps and the
     blit validate their own ranges. *)
  let apply_row ~coeffs ~tables ~srcs ~soffs ~dst ~doff ~off ~len =
    let first = ref true in
    for j = 0 to Array.length coeffs - 1 do
      let c = coeffs.(j) in
      if not (F.is_zero c) then begin
        let src = srcs.(j) and soff = soffs.(j) + off in
        let doff = doff + off in
        if !first then
          if F.equal c F.one then Bytes.blit src soff dst doff len
          else Sym.mul_buf tables.(j) ~src ~soff ~dst ~doff ~len
        else if F.equal c F.one then
          Galois.Wops.xor_into ~src ~soff ~dst ~doff ~len
        else Sym.muladd_buf tables.(j) ~src ~soff ~dst ~doff ~len;
        first := false
      end
    done;
    (* An all-zero row still must define the output range: dst buffers
       come from Bytes.create, whose contents are unspecified. *)
    if !first then Bytes.fill dst (doff + off) len '\000'

  let encode t value =
    let cols = Splitter.columns ~k:t.k ~bps value in
    let size = Bytes.length cols.(0) in
    let parity_len = t.n - t.k in
    (* fragment parity_len + j is exactly message column j *)
    let outputs =
      Array.init t.n (fun i ->
          if i < parity_len then Bytes.create size else cols.(i - parity_len))
    in
    let tables = row_tables t.parity_rows in
    let soffs = Array.make t.k 0 in
    for i = 0 to parity_len - 1 do
      apply_row ~coeffs:t.parity_rows.(i) ~tables:tables.(i) ~srcs:cols
        ~soffs ~dst:outputs.(i) ~doff:0 ~off:0 ~len:size
    done;
    Array.init t.n (fun i -> Fragment.make ~index:i ~data:outputs.(i))

  let syndromes t (received : int array) =
    let parity_len = t.n - t.k in
    Array.init parity_len (fun j ->
        (* S_{j+1} = r(alpha^{j+1}) *)
        let x = F.alpha_pow (j + 1) in
        let acc = ref F.zero in
        for i = t.n - 1 downto 0 do
          acc := F.add (F.mul !acc x) received.(i)
        done;
        !acc)

  (* Sugiyama's extended-Euclid algorithm on (x^{2t}, modified syndrome),
     stopping when 2*deg(remainder) < 2t + num_erasures. Returns
     (error locator Lambda, evaluator Omega). *)
  let sugiyama ~two_t ~num_erasures tpoly =
    let r_prev = ref (Poly.monomial two_t F.one) in
    let r_cur = ref tpoly in
    let v_prev = ref Poly.zero in
    let v_cur = ref Poly.one in
    while 2 * Poly.degree !r_cur >= two_t + num_erasures do
      let q, rem = Poly.div_mod !r_prev !r_cur in
      (* v_prev - q v_cur; subtraction is addition in characteristic 2 *)
      let v_next = Poly.add !v_prev (Poly.mul q !v_cur) in
      r_prev := !r_cur;
      r_cur := rem;
      v_prev := !v_cur;
      v_cur := v_next
    done;
    (!v_cur, !r_cur)

  (* Correct one stripe in place. [received] has n symbols with erased
     positions set to 0. The erasure locator [gamma] and [num_erasures]
     depend only on which fragments are present, so the caller computes
     them once for all stripes. *)
  let correct_stripe t ~gamma ~num_erasures (received : int array) =
    let two_t = t.n - t.k in
    let synd = syndromes t received in
    let s_poly = Poly.of_coeffs synd in
    if not (Poly.is_zero s_poly) || num_erasures > 0 then begin
      let t_poly = Poly.truncate two_t (Poly.mul s_poly gamma) in
      let lambda, omega = sugiyama ~two_t ~num_erasures t_poly in
      if Poly.is_zero lambda || F.is_zero (Poly.coeff lambda 0) then
        raise (Decode_failure "degenerate error locator");
      let xi = Poly.mul lambda gamma in
      let xi' = Poly.derivative xi in
      (* Chien search over the code's positions; every root of Xi must
         land on a valid position, exactly deg(Xi) of them. *)
      let found = ref 0 in
      for i = 0 to t.n - 1 do
        let x_inv = F.alpha_pow (-i) in
        if F.is_zero (Poly.eval xi x_inv) then begin
          incr found;
          let denom = Poly.eval xi' x_inv in
          if F.is_zero denom then
            raise (Decode_failure "Forney denominator vanished");
          let magnitude = F.div (Poly.eval omega x_inv) denom in
          received.(i) <- F.add received.(i) magnitude
        end
      done;
      if !found <> Poly.degree xi then
        raise (Decode_failure "error locator has roots outside the code");
      (* Defensive re-check: the corrected word must be a codeword. *)
      let check = syndromes t received in
      if Array.exists (fun s -> not (F.is_zero s)) check then
        raise (Decode_failure "correction did not produce a codeword")
    end

  (* The received word: which coordinates are present, and each present
     fragment's payload (the first fragment seen per index wins). *)
  type received = {
    present : bool array;
    bufs : bytes array;
    size : int;
  }

  let collect t frags =
    let present = Array.make t.n false in
    let bufs = Array.make t.n Bytes.empty in
    let count = ref 0 in
    let size = ref (-1) in
    List.iter
      (fun f ->
        let i = Fragment.index f in
        if i < 0 || i >= t.n then
          invalid_arg (Printf.sprintf "Rs_bch.decode: index %d out of range" i);
        if not present.(i) then begin
          present.(i) <- true;
          bufs.(i) <- Fragment.data f;
          incr count;
          if !size < 0 then size := Fragment.size f
          else if Fragment.size f <> !size then
            invalid_arg "Rs_bch.decode: fragment sizes differ"
        end)
      frags;
    if !count < t.k then
      raise (Insufficient_fragments { needed = t.k; got = !count });
    if !size mod bps <> 0 then
      invalid_arg "Rs_bch.decode: fragment size not a whole symbol count";
    { present; bufs; size = !size }

  (* Erasure locator prod_{i absent} (1 - alpha^i x) and its degree. At
     least k fragments are present, so there are never more erasures
     than parity symbols. *)
  let erasure_locator t present =
    let num_erasures = ref 0 in
    let gamma = ref Poly.one in
    for i = 0 to t.n - 1 do
      if not present.(i) then begin
        incr num_erasures;
        (* (1 - alpha^i x); subtraction = addition in characteristic 2. *)
        gamma := Poly.mul !gamma (Poly.of_list [ F.one; F.alpha_pow i ])
      end
    done;
    (!gamma, !num_erasures)

  (* Load stripe [s] of the received word into [received], erasures 0. *)
  let read_stripe t r s received =
    for i = 0 to t.n - 1 do
      received.(i) <-
        (if r.present.(i) then Sym.get r.bufs.(i) (bps * s)
         else F.zero)
    done

  let decode_reference t frags =
    let r = collect t frags in
    let stripes = r.size / bps in
    let gamma, num_erasures = erasure_locator t r.present in
    let framed = Bytes.create (stripes * bps * t.k) in
    let received = Array.make t.n F.zero in
    for s = 0 to stripes - 1 do
      read_stripe t r s received;
      correct_stripe t ~gamma ~num_erasures received;
      for j = 0 to t.k - 1 do
        Sym.set framed (bps * ((j * stripes) + s)) received.(t.n - t.k + j)
      done
    done;
    Splitter.unframe framed

  (* Set [dirty.[s]] for every stripe [s] in [lo, lo+len) whose symbol in
     [res] is nonzero, skipping zero 8-byte words (8 is a whole number
     of symbols, so words never straddle a stripe boundary). *)
  let mark_dirty ~res ~dirty ~lo ~len =
    let stop = bps * (lo + len) in
    let b = ref (bps * lo) in
    while !b < stop do
      if !b + 8 <= stop && Int64.equal (Bytes.get_int64_ne res !b) 0L then
        b := !b + 8
      else begin
        let word_end = min stop (!b + 8) in
        for i = !b to word_end - 1 do
          if Bytes.get res i <> '\000' then Bytes.set dirty (i / bps) '\001'
        done;
        b := word_end
      end
    done

  (* Decode sweeps run over blocks of this many stripes, so that every
     source's block stays cache-resident across all the rows that read
     it. *)
  let block_stripes = 4096

  let iter_blocks ~lo ~len f =
    let stop = lo + len in
    let b = ref lo in
    while !b < stop do
      let len = min block_stripes (stop - !b) in
      f ~lo:!b ~len;
      b := !b + len
    done

  (* The rows of S^-1 for the [missing] message columns, where S
     stacks the generator rows of the [basis] coordinates: the present
     message coordinates, then [p = |missing|] parity coordinates Pb.
     S is the identity on the present columns, so only the p x p block
     A = P[Pb][missing] needs inverting; in characteristic 2,
       m_missing = A^-1 c_Pb + A^-1 P[Pb][present] m_present,
     which reads off S^-1's rows over the basis order. *)
  let solve_rows t ~basis ~missing =
    let parity_len = t.n - t.k in
    let p = Array.length missing in
    let known = t.k - p in
    if p = 0 then [||]
    else begin
      let pb = Array.sub basis known p in
      let a_inv =
        Matrix.invert
          (Matrix.create ~rows:p ~cols:p (fun q r ->
               t.parity_rows.(pb.(q)).(missing.(r))))
      in
      Array.init p (fun r ->
          Array.mapi
            (fun b i ->
              if b >= known then Matrix.get a_inv r (b - known)
              else begin
                let acc = ref F.zero in
                for q = 0 to p - 1 do
                  acc :=
                    F.add !acc
                      (F.mul (Matrix.get a_inv r q)
                         t.parity_rows.(pb.(q)).(i - parity_len))
                done;
                !acc
              end)
            basis)
    end

  (* The message columns whose coordinates are not in [present]. *)
  let missing_cols t present =
    List.init t.k Fun.id
    |> List.filter (fun j -> not present.(t.n - t.k + j))
    |> Array.of_list

  (* Check-gated sweep over stripes [lo, lo+len), taking the coordinates
     set in [present] as the received ones. The message columns are
     solved from k of them by row sweeps; every other one is re-encoded
     from those columns and compared with what was received. Message
     column [j] lives at [col_offs.(j)] of [col_bufs.(j)]: it must hold
     the received symbols if coordinate [n-k+j] is in [present], and the
     sweep writes the solved symbols there otherwise. Returns the dirty
     mask: byte [s] is set for each stripe of the range whose residuals
     are not all zero. *)
  let sweep t r ~present ~col_bufs ~col_offs ~lo ~len =
    let size = r.size in
    let parity_len = t.n - t.k in
    (* Basis: present message coordinates first, then parity coordinates
       up to k. The remaining present coordinates are the checks. *)
    let order =
      List.init t.k (fun j -> parity_len + j) @ List.init parity_len Fun.id
      |> List.filter (fun i -> present.(i))
      |> Array.of_list
    in
    let basis = Array.sub order 0 t.k in
    let checks = Array.sub order t.k (Array.length order - t.k) in
    let missing = missing_cols t present in
    let solve = solve_rows t ~basis ~missing in
    let solve_tables = row_tables solve in
    let basis_bufs = Array.map (fun i -> r.bufs.(i)) basis in
    let basis_offs = Array.make t.k 0 in
    let check_rows = Array.map (generator_row t) checks in
    let check_tables = row_tables check_rows in
    let res = Bytes.create (if Array.length checks = 0 then 0 else size) in
    let dirty = Bytes.make (size / bps) '\000' in
    (* One pass over stripe blocks: solve the block's missing columns,
       then re-encode every check coordinate from the block's columns
       and mark the stripes where it differs from what was received. *)
    iter_blocks ~lo ~len (fun ~lo ~len ->
        let off = bps * lo and bytes = bps * len in
        Array.iteri
          (fun m coeffs ->
            let j = missing.(m) in
            apply_row ~coeffs ~tables:solve_tables.(m) ~srcs:basis_bufs
              ~soffs:basis_offs ~dst:col_bufs.(j) ~doff:col_offs.(j) ~off
              ~len:bytes)
          solve;
        Array.iteri
          (fun c i ->
            apply_row ~coeffs:check_rows.(c) ~tables:check_tables.(c)
              ~srcs:col_bufs ~soffs:col_offs ~dst:res ~doff:0 ~off ~len:bytes;
            Galois.Wops.xor_into ~src:r.bufs.(i) ~soff:off
              ~dst:res ~doff:off ~len:bytes;
            mark_dirty ~res ~dirty ~lo ~len)
          checks);
    dirty

  (* Locate-then-erase decode.

     1. Sweep every stripe over the present set P. A stripe whose
        residuals are all zero is consistent, and the unique codeword
        agreeing with it on P is what erasure-only correction returns:
        its decoded symbols are the swept columns.
     2. Correct the first dirty stripe with the key-equation solver and
        let E be the present coordinates it changed. A corrupt fragment
        is usually wrong in every stripe at the same coordinate, so E
        locates it.
     3. Sweep the stripes from the first to the last dirty one again
        over P \ E (outside that span the step-1 columns stand).
     4. A stripe consistent on P \ E differs from the received word
        only inside E, and 2|E| + erasures <= n - k, so it lies within
        the correction radius: [decode_reference] returns exactly the
        swept codeword. Stripes still dirty go through the key-equation
        solver on the received word, in stripe order, so scattered or
        over-radius errors decode (or fail) exactly as there. *)
  let decode t frags =
    let r = collect t frags in
    let size = r.size in
    let stripes = size / bps in
    let parity_len = t.n - t.k in
    (* Step-1 columns: present message coordinates read in place from
       the fragments, missing ones solved into one fresh buffer. *)
    let col_bufs = Array.init t.k (fun j -> r.bufs.(parity_len + j)) in
    let col_offs = Array.make t.k 0 in
    let missing = missing_cols t r.present in
    let solved = Bytes.create (Array.length missing * size) in
    Array.iteri
      (fun m j ->
        col_bufs.(j) <- solved;
        col_offs.(j) <- m * size)
      missing;
    let dirty =
      sweep t r ~present:r.present ~col_bufs ~col_offs ~lo:0 ~len:stripes
    in
    (match Bytes.index_opt dirty '\001' with
    | None -> ()
    | Some first ->
      (* Dirty stripes rewrite their message symbols, so the columns
         still read in place from the caller's fragments get private
         copies first. *)
      let owned = Bytes.create (t.k * size) in
      for j = 0 to t.k - 1 do
        Bytes.blit col_bufs.(j) col_offs.(j) owned (j * size) size;
        col_bufs.(j) <- owned;
        col_offs.(j) <- j * size
      done;
      let gamma, num_erasures = erasure_locator t r.present in
      let received = Array.make t.n F.zero in
      read_stripe t r first received;
      let original = Array.copy received in
      correct_stripe t ~gamma ~num_erasures received;
      let located = ref 0 in
      let kept =
        Array.mapi
          (fun i p ->
            let changed = p && not (F.equal received.(i) original.(i)) in
            if changed then incr located;
            p && not changed)
          r.present
      in
      let dirty =
        if !located > 0 && (2 * !located) + num_erasures <= parity_len then
          sweep t r ~present:kept ~col_bufs ~col_offs ~lo:first
            ~len:(Bytes.rindex dirty '\001' - first + 1)
        else dirty
      in
      for s = 0 to stripes - 1 do
        if Bytes.get dirty s = '\001' then begin
          read_stripe t r s received;
          correct_stripe t ~gamma ~num_erasures received;
          for j = 0 to t.k - 1 do
            Sym.set owned ((j * size) + (bps * s)) received.(parity_len + j)
          done
        end
      done);
    Splitter.extract ~k:t.k ~bps ~bufs:col_bufs ~offs:col_offs ~col_len:size
end
