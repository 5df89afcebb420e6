(* Errors-and-erasures Reed-Solomon over GF(2^16) (two-byte symbols):
   the SODAerr codec for systems beyond 255 servers. Same interface as
   {!Rs_bch} (see rs_bch.mli); code lengths up to 65535. *)
include Rs_bch_gen.Make (Symbol.Wide)
