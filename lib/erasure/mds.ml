(* An instance carries its codec's operations, so no entry point
   dispatches on the symbol width; both widths raise the exceptions
   defined once in Rs_bch_gen. *)

type t = {
  n : int;
  k : int;
  name : string;
  bps : int;
  encode : bytes -> Fragment.t array;
  decode : Fragment.t list -> bytes;
}

exception Insufficient_fragments = Rs_bch_gen.Insufficient_fragments
exception Decode_failure = Rs_bch_gen.Decode_failure

module type CODEC = sig
  type t

  val make : n:int -> k:int -> t
  val encode : t -> bytes -> Fragment.t array
  val decode : t -> Fragment.t list -> bytes
end

let instance (module C : CODEC) ~family ~bps ~n ~k =
  let c = C.make ~n ~k in
  { n;
    k;
    name = Printf.sprintf "%s[%d,%d]" family n k;
    bps;
    encode = C.encode c;
    decode = C.decode c
  }

let rs_bch = instance (module Rs_bch) ~family:"rs-bch" ~bps:1
let rs_bch16 = instance (module Rs_bch16) ~family:"rs-bch16" ~bps:2
let n t = t.n
let k t = t.k
let name t = t.name
let encode t value = t.encode value
let decode t frags = t.decode frags

(* [bps]-byte symbols: stripes = framed / (bps k), bps bytes per stripe *)
let fragment_size t ~value_len =
  t.bps * Splitter.fragment_size ~k:(t.bps * t.k) ~value_len
