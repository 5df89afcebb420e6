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

(* Decode counterpart of [unframe] for the zero-copy path: the framed
   buffer is never materialized; header and value bytes are interleaved
   straight out of the k decoded column views. *)
let extract ~k ~bps ~bufs ~offs ~col_len =
  let total = k * col_len in
  if total < header_len then
    invalid_arg "Splitter.extract: columns shorter than header";
  let hdr = Bytes.create header_len in
  Kernel.merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo:0 ~len:header_len
    ~dst:hdr ~doff:0;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || header_len + len > total then
    invalid_arg "Splitter.extract: corrupt length header";
  let out = Bytes.create len in
  Kernel.merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo:header_len ~len
    ~dst:out ~doff:0;
  out

let fragment_size ~k ~value_len =
  if k <= 0 then invalid_arg "Splitter.fragment_size: k must be positive";
  if value_len < 0 then invalid_arg "Splitter.fragment_size: negative length";
  (header_len + value_len + k - 1) / k
