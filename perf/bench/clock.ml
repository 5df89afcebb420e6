(* The benchmark's one wall-clock read. Every span and rate the
   benchmark reports is a difference of two calls. *)

let[@lint.allow
     "D1: host wall time for reporting only; never feeds simulated time \
      or protocol decisions"] now () =
  Unix.gettimeofday ()
