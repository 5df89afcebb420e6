let header_len = 4

let frame ~k v =
  if k <= 0 then invalid_arg "Splitter.frame: k must be positive";
  let len = Bytes.length v in
  if len > 0x7fffffff then invalid_arg "Splitter.frame: value too large";
  let total = header_len + len in
  let padded = (total + k - 1) / k * k in
  let out = Bytes.make padded '\000' in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.blit v 0 out header_len len;
  out

let unframe framed =
  if Bytes.length framed < header_len then
    invalid_arg "Splitter.unframe: buffer shorter than header";
  let len = Int32.to_int (Bytes.get_int32_be framed 0) in
  if len < 0 || header_len + len > Bytes.length framed then
    invalid_arg "Splitter.unframe: corrupt length header";
  Bytes.sub framed header_len len

(* Column [j] holds framed bytes [j*col_len, (j+1)*col_len). Calls
   [f j coff pos n] for each column piece of the framed range
   [lo, lo+len): [n] bytes at offset [coff] of column [j], which are
   bytes [pos, pos+n) of the range. At most one piece per column. *)
let iter_span ~col_len ~lo ~len f =
  let stop = lo + len in
  let p = ref lo in
  while !p < stop do
    let j = !p / col_len and coff = !p mod col_len in
    let n = min (col_len - coff) (stop - !p) in
    f j coff (!p - lo) n;
    p := !p + n
  done

let fragment_size ~k ~value_len =
  if k <= 0 then invalid_arg "Splitter.fragment_size: k must be positive";
  if value_len < 0 then invalid_arg "Splitter.fragment_size: negative length";
  (header_len + value_len + k - 1) / k

let columns ~k ~bps v =
  if k <= 0 || bps <= 0 then invalid_arg "Splitter.columns: bad dimensions";
  let len = Bytes.length v in
  if len > 0x7fffffff then invalid_arg "Splitter.columns: value too large";
  let col_len = bps * fragment_size ~k:(bps * k) ~value_len:len in
  (* zero-filled, so the padding is already in place *)
  let cols = Array.init k (fun _ -> Bytes.make col_len '\000') in
  let write src ~lo =
    iter_span ~col_len ~lo ~len:(Bytes.length src) (fun j coff pos n ->
        Bytes.blit src pos cols.(j) coff n)
  in
  let hdr = Bytes.create header_len in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  write hdr ~lo:0;
  write v ~lo:header_len;
  cols

(* Decode counterpart of [unframe] for the zero-copy path: the framed
   buffer is never materialized; the header and the value are blitted
   straight out of the k decoded column views. *)
let extract ~k ~bps ~bufs ~offs ~col_len =
  if Array.length bufs <> k || Array.length offs <> k then
    invalid_arg "Splitter.extract: expected k column views";
  if col_len mod bps <> 0 then
    invalid_arg "Splitter.extract: column not a whole number of symbols";
  Array.iteri
    (fun j buf ->
      if offs.(j) < 0 || offs.(j) + col_len > Bytes.length buf then
        invalid_arg "Splitter.extract: column view outside its buffer")
    bufs;
  let total = k * col_len in
  if total < header_len then
    invalid_arg "Splitter.extract: columns shorter than header";
  let read dst ~lo =
    iter_span ~col_len ~lo ~len:(Bytes.length dst) (fun j coff pos n ->
        Bytes.blit bufs.(j) (offs.(j) + coff) dst pos n)
  in
  let hdr = Bytes.create header_len in
  read hdr ~lo:0;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || header_len + len > total then
    invalid_arg "Splitter.extract: corrupt length header";
  let out = Bytes.create len in
  read out ~lo:header_len;
  out
