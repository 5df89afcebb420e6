(* X1 fixture: exports declared only through an included signature;
   X1_use references [used]. *)

include X1_sig.S (* [dead]: no other unit references it: X1 *)
