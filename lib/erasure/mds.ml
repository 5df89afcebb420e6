type impl =
  | Bch of Rs_bch.t
  | Bch16 of Rs_bch16.t

type t = { impl : impl; n : int; k : int; name : string }

exception Insufficient_fragments of { needed : int; got : int }
exception Decode_failure of string

let rs_bch ~n ~k =
  { impl = Bch (Rs_bch.make ~n ~k);
    n;
    k;
    name = Printf.sprintf "rs-bch[%d,%d]" n k
  }

let rs_bch16 ~n ~k =
  { impl = Bch16 (Rs_bch16.make ~n ~k);
    n;
    k;
    name = Printf.sprintf "rs-bch16[%d,%d]" n k
  }

let n t = t.n
let k t = t.k
let name t = t.name

let encode t value =
  match t.impl with
  | Bch c -> Rs_bch.encode c value
  | Bch16 c -> Rs_bch16.encode c value

let decode t frags =
  match t.impl with
  | Bch c -> begin
    try Rs_bch.decode c frags with
    | Rs_bch.Insufficient_fragments { needed; got } ->
      raise (Insufficient_fragments { needed; got })
    | Rs_bch.Decode_failure msg -> raise (Decode_failure msg)
  end
  | Bch16 c -> begin
    try Rs_bch16.decode c frags with
    | Rs_bch16.Insufficient_fragments { needed; got } ->
      raise (Insufficient_fragments { needed; got })
    | Rs_bch16.Decode_failure msg -> raise (Decode_failure msg)
  end

let fragment_size t ~value_len =
  match t.impl with
  | Bch16 _ ->
    (* 2-byte symbols: stripes = framed/(2k), fragment = 2 bytes/stripe *)
    2 * Splitter.fragment_size ~k:(2 * t.k) ~value_len
  | Bch _ -> Splitter.fragment_size ~k:t.k ~value_len
