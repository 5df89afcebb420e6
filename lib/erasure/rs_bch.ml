(* The GF(2^8), one-byte-symbol instantiation of the generic
   errors-and-erasures Reed-Solomon codec; see rs_bch.mli for
   documentation and Rs_bch_gen for the implementation. *)
include Rs_bch_gen.Make (Symbol.Byte)
