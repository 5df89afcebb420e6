(* Polynomials over an arbitrary field of the {!Field.S} shape,
   instantiated by the Reed-Solomon codec ({!Erasure.Rs_bch_gen}) at its
   symbol field. Coefficients are stored lowest degree first; [div_mod]
   raises [Division_by_zero] on the zero divisor. *)

module Make (F : Field.S) = struct
  type t = F.t array
  (* Invariant: either empty (zero polynomial) or the last element is
     non-zero. All construction goes through [normalize]. *)

  let normalize (a : F.t array) : t =
    let d = ref (Array.length a - 1) in
    while !d >= 0 && F.is_zero a.(!d) do
      decr d
    done;
    Array.sub a 0 (!d + 1)

  (* R1: arrays, but treated as immutable values — every operation
     allocates fresh output and never mutates its inputs. *)
  let[@lint.allow "R1: physically immutable constant — never written"] zero :
      t =
    [||]

  let[@lint.allow "R1: physically immutable constant — never written"] one :
      t =
    [| F.one |]
  let of_coeffs a = normalize a
  let of_list l = normalize (Array.of_list l)
  let degree (p : t) = Array.length p - 1
  let is_zero (p : t) = Array.length p = 0

  let monomial d c =
    if d < 0 then invalid_arg "Poly.monomial: negative degree";
    if F.is_zero c then zero
    else begin
      let a = Array.make (d + 1) F.zero in
      a.(d) <- c;
      a
    end

  let coeff (p : t) i =
    if i < 0 then invalid_arg "Poly.coeff: negative index";
    if i >= Array.length p then F.zero else p.(i)

  let equal (p : t) (q : t) =
    Array.length p = Array.length q && Array.for_all2 F.equal p q

  let add (p : t) (q : t) : t =
    let n = max (Array.length p) (Array.length q) in
    normalize (Array.init n (fun i -> F.add (coeff p i) (coeff q i)))

  let scale c (p : t) : t =
    if F.is_zero c then zero else normalize (Array.map (F.mul c) p)

  let mul (p : t) (q : t) : t =
    if is_zero p || is_zero q then zero
    else begin
      let r = Array.make (Array.length p + Array.length q - 1) F.zero in
      Array.iteri
        (fun i pi ->
          if not (F.is_zero pi) then
            Array.iteri
              (fun j qj -> r.(i + j) <- F.add r.(i + j) (F.mul pi qj))
              q)
        p;
      normalize r
    end

  let div_mod (num : t) (den : t) : t * t =
    if is_zero den then raise Division_by_zero;
    let dd = degree den in
    let lead_inv = F.inv den.(dd) in
    let r = Array.copy num in
    let qlen = degree num - dd + 1 in
    if qlen <= 0 then (zero, normalize r)
    else begin
      let q = Array.make qlen F.zero in
      for i = qlen - 1 downto 0 do
        let c = F.mul r.(i + dd) lead_inv in
        if not (F.is_zero c) then begin
          q.(i) <- c;
          for j = 0 to dd do
            r.(i + j) <- F.sub r.(i + j) (F.mul c den.(j))
          done
        end
      done;
      (normalize q, normalize r)
    end

  let rem num den = snd (div_mod num den)

  let eval (p : t) (x : F.t) : F.t =
    let acc = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      acc := F.add (F.mul !acc x) p.(i)
    done;
    !acc

  let derivative (p : t) : t =
    if Array.length p <= 1 then zero
    else
      normalize
        (Array.init
           (Array.length p - 1)
           (fun i -> if i land 1 = 0 then p.(i + 1) else F.zero))

  let truncate d (p : t) : t =
    if d < 0 then invalid_arg "Poly.truncate: negative degree";
    if Array.length p <= d then p else normalize (Array.sub p 0 d)

  (* Lagrange interpolation: the unique polynomial of degree < n through
     n points with distinct abscissae. *)
  let interpolate points =
    let n = Array.length points in
    if n = 0 then invalid_arg "Poly.interpolate: no points";
    Array.iteri
      (fun i (xi, _) ->
        Array.iteri
          (fun j (xj, _) ->
            if i < j && F.equal xi xj then
              invalid_arg "Poly.interpolate: duplicate abscissa")
          points)
      points;
    let acc = ref zero in
    Array.iteri
      (fun i (xi, yi) ->
        (* basis_i(x) = prod_{j<>i} (x - xj) / (xi - xj) *)
        let num = ref one in
        let den = ref F.one in
        Array.iteri
          (fun j (xj, _) ->
            if j <> i then begin
              num := mul !num (of_list [ xj; F.one ]);
              den := F.mul !den (F.sub xi xj)
            end)
          points;
        acc := add !acc (scale (F.div yi !den) !num))
      points;
    !acc
end
