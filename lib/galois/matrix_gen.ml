(* Dense row-major matrices over an arbitrary field of the {!Field.S}
   shape, instantiated by the Reed-Solomon codec ({!Erasure.Rs_bch_gen})
   at its symbol field. [invert] is Gauss-Jordan and raises
   [Singular]; out-of-range dimensions raise [Invalid_argument]. *)

module Make (F : Field.S) = struct
  type t = { rows : int; cols : int; data : F.t array }

  exception Singular

  let create ~rows ~cols f =
    if rows <= 0 || cols <= 0 then
      invalid_arg "Matrix.create: non-positive dimension";
    let data = Array.make (rows * cols) F.zero in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        data.((i * cols) + j) <- f i j
      done
    done;
    { rows; cols; data }

  let of_rows r =
    let rows = Array.length r in
    if rows = 0 then invalid_arg "Matrix.of_rows: empty";
    let cols = Array.length r.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then invalid_arg "Matrix.of_rows: ragged")
      r;
    create ~rows ~cols (fun i j -> r.(i).(j))

  let identity n =
    create ~rows:n ~cols:n (fun i j -> if i = j then F.one else F.zero)

  let rows m = m.rows

  let get m i j =
    if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
      invalid_arg "Matrix.get: out of bounds";
    m.data.((i * m.cols) + j)

  let equal a b =
    a.rows = b.rows && a.cols = b.cols
    && Array.for_all2 F.equal a.data b.data

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
    create ~rows:a.rows ~cols:b.cols (fun i j ->
        let acc = ref F.zero in
        for l = 0 to a.cols - 1 do
          acc :=
            F.add !acc
              (F.mul a.data.((i * a.cols) + l) b.data.((l * b.cols) + j))
        done;
        !acc)

  let select_rows m idx =
    create ~rows:(Array.length idx) ~cols:m.cols (fun i j -> get m idx.(i) j)

  (* Gauss-Jordan elimination over the scratch array [a] of [rows] rows
     and [width] columns, reducing the left [rows] columns to the
     identity. Raises [Singular] when a pivot cannot be found. *)
  let eliminate a rows width =
    for col = 0 to rows - 1 do
      let pivot = ref (-1) in
      let r = ref col in
      while !pivot < 0 && !r < rows do
        if not (F.is_zero a.((!r * width) + col)) then pivot := !r;
        incr r
      done;
      if !pivot < 0 then raise Singular;
      if !pivot <> col then
        for j = 0 to width - 1 do
          let tmp = a.((col * width) + j) in
          a.((col * width) + j) <- a.((!pivot * width) + j);
          a.((!pivot * width) + j) <- tmp
        done;
      let inv = F.inv a.((col * width) + col) in
      for j = 0 to width - 1 do
        a.((col * width) + j) <- F.mul inv a.((col * width) + j)
      done;
      for i = 0 to rows - 1 do
        if i <> col then begin
          let factor = a.((i * width) + col) in
          if not (F.is_zero factor) then
            for j = 0 to width - 1 do
              a.((i * width) + j) <-
                F.sub a.((i * width) + j) (F.mul factor a.((col * width) + j))
            done
        end
      done
    done

  let invert m =
    if m.rows <> m.cols then invalid_arg "Matrix.invert: not square";
    let n = m.rows in
    let width = 2 * n in
    let a = Array.make (n * width) F.zero in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        a.((i * width) + j) <- get m i j
      done;
      a.((i * width) + n + i) <- F.one
    done;
    eliminate a n width;
    create ~rows:n ~cols:n (fun i j -> a.((i * width) + n + j))

  let rank m =
    let a = Array.copy m.data in
    let rank = ref 0 in
    let pivot_row = ref 0 in
    (try
       for col = 0 to m.cols - 1 do
         if !pivot_row >= m.rows then raise Exit;
         let pivot = ref (-1) in
         for i = !pivot_row to m.rows - 1 do
           if !pivot < 0 && not (F.is_zero a.((i * m.cols) + col)) then
             pivot := i
         done;
         if !pivot >= 0 then begin
           if !pivot <> !pivot_row then
             for j = 0 to m.cols - 1 do
               let tmp = a.((!pivot_row * m.cols) + j) in
               a.((!pivot_row * m.cols) + j) <- a.((!pivot * m.cols) + j);
               a.((!pivot * m.cols) + j) <- tmp
             done;
           let inv = F.inv a.((!pivot_row * m.cols) + col) in
           for j = 0 to m.cols - 1 do
             a.((!pivot_row * m.cols) + j) <-
               F.mul inv a.((!pivot_row * m.cols) + j)
           done;
           for i = !pivot_row + 1 to m.rows - 1 do
             let factor = a.((i * m.cols) + col) in
             if not (F.is_zero factor) then
               for j = 0 to m.cols - 1 do
                 a.((i * m.cols) + j) <-
                   F.sub
                     a.((i * m.cols) + j)
                     (F.mul factor a.((!pivot_row * m.cols) + j))
               done
           done;
           incr rank;
           incr pivot_row
         end
       done
     with Exit -> ());
    !rank
end
