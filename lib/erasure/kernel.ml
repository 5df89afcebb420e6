(* Stripe transposition for the Reed-Solomon codec; see kernel.mli. *)

(* U1 audit: the unchecked byte accesses in the transpose/merge loops
   run over index ranges validated once per call at the function head
   (every loop bound is derived from [k * col_len = stripes * row_bytes]
   after the explicit length checks). Build with the [soda-debug]
   profile to compile in the corresponding [assert]s; release strips
   them with [-noassert]. *)
[@@@lint.allow
  "U1: every loop bound derives from k * col_len = stripes * row_bytes \
   after the explicit length checks; soda-debug compiles in the asserts"]

(* ------------------------------------------------------------------ *)
(* Stripe-major <-> row-major transposition.

   The framed value interleaves the k code columns byte by byte
   (stripe s occupies framed[s*k*bps, (s+1)*k*bps)); the kernel sweeps
   want each column contiguous. bps = 1 and 2 (the two symbol widths in
   use) get dedicated loops; unsafe accesses are covered by the length
   checks at entry. *)

let split_cols ~k ~bps framed =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.split_cols: bad dimensions";
  let row_bytes = k * bps in
  let len = Bytes.length framed in
  if len mod row_bytes <> 0 then
    invalid_arg "Kernel.split_cols: buffer not a whole number of stripes";
  let stripes = len / row_bytes in
  Array.init k (fun j ->
      let col = Bytes.create (stripes * bps) in
      (match bps with
      | 1 ->
        for s = 0 to stripes - 1 do
          Bytes.unsafe_set col s (Bytes.unsafe_get framed ((s * k) + j))
        done
      | 2 ->
        for s = 0 to stripes - 1 do
          let src = 2 * ((s * k) + j) in
          Bytes.unsafe_set col (2 * s) (Bytes.unsafe_get framed src);
          Bytes.unsafe_set col ((2 * s) + 1) (Bytes.unsafe_get framed (src + 1))
        done
      | _ ->
        for s = 0 to stripes - 1 do
          Bytes.blit framed (bps * ((s * k) + j)) col (s * bps) bps
        done);
      col)

let merge_cols ~k ~bps cols =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.merge_cols: bad dimensions";
  if Array.length cols <> k then
    invalid_arg "Kernel.merge_cols: expected k column buffers";
  let col_len = Bytes.length cols.(0) in
  Array.iter
    (fun c ->
      if Bytes.length c <> col_len then
        invalid_arg "Kernel.merge_cols: ragged columns")
    cols;
  if col_len mod bps <> 0 then
    invalid_arg "Kernel.merge_cols: column not a whole number of symbols";
  let stripes = col_len / bps in
  let framed = Bytes.create (stripes * k * bps) in
  for j = 0 to k - 1 do
    let col = cols.(j) in
    match bps with
    | 1 ->
      for s = 0 to stripes - 1 do
        Bytes.unsafe_set framed ((s * k) + j) (Bytes.unsafe_get col s)
      done
    | 2 ->
      for s = 0 to stripes - 1 do
        let dst = 2 * ((s * k) + j) in
        Bytes.unsafe_set framed dst (Bytes.unsafe_get col (2 * s));
        Bytes.unsafe_set framed (dst + 1) (Bytes.unsafe_get col ((2 * s) + 1))
      done
    | _ ->
      for s = 0 to stripes - 1 do
        Bytes.blit col (s * bps) framed (bps * ((s * k) + j)) bps
      done
  done;
  framed

(* ------------------------------------------------------------------ *)
(* View-aware transposition: the decode path reads fragment payloads in
   place, so the transpose below takes explicit source offsets. *)

(* Interleave byte range [lo, lo + len) of the (virtual) stripe-major
   framed layout from k column views straight into [dst] at [doff]: the
   decode path uses it to materialize the value without building the
   whole framed buffer first ([lo] skips the length header, [len] stops
   before the padding). Column [j] of stripe [s] lives at byte
   [offs.(j) + s*bps .. +bps) of [bufs.(j)]. *)
let merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo ~len ~dst ~doff =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.merge_cols_sub: bad dimensions";
  if Array.length bufs <> k || Array.length offs <> k then
    invalid_arg "Kernel.merge_cols_sub: expected k column views";
  if col_len mod bps <> 0 then
    invalid_arg "Kernel.merge_cols_sub: column not a whole number of symbols";
  let row_bytes = k * bps in
  let total = col_len / bps * row_bytes in
  if lo < 0 || len < 0 || lo + len > total then
    invalid_arg "Kernel.merge_cols_sub: range outside the framed layout";
  if doff < 0 || doff + len > Bytes.length dst then
    invalid_arg "Kernel.merge_cols_sub: range outside dst";
  Array.iteri
    (fun j buf ->
      if offs.(j) < 0 || offs.(j) + col_len > Bytes.length buf then
        invalid_arg "Kernel.merge_cols_sub: column view outside its buffer")
    bufs;
  (* Iterate per column so each source streams sequentially. Byte [b] of
     column [j]'s stripe [s] sits at framed position
     [s*row_bytes + j*bps + b]. *)
  for j = 0 to k - 1 do
    let buf = bufs.(j) and base = offs.(j) in
    for b = 0 to bps - 1 do
      let rem = (j * bps) + b in
      (* positions p = s*row_bytes + rem within [lo, lo+len) *)
      let s0 = if lo <= rem then 0 else (lo - rem + row_bytes - 1) / row_bytes in
      let s1 =
        let hi = lo + len in
        if hi <= rem then 0 else (hi - rem + row_bytes - 1) / row_bytes
      in
      for s = s0 to s1 - 1 do
        Bytes.unsafe_set dst
          (doff + (s * row_bytes) + rem - lo)
          (Bytes.unsafe_get buf (base + (s * bps) + b))
      done
    done
  done
