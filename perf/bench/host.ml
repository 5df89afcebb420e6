(* How fast the host runs right now, from a fixed kernel that owes
   nothing to lib/.

   On a shared VM the same code runs up to 1.6× faster or slower from
   one minute to the next, far beyond any bound a regression check
   could use. The kernel below (sort, hash-table churn, list
   allocation: the mix of work the simulator does) slows down and
   speeds up with it. Its median time over a run correlates at 0.97
   with kv-10k's rate over 30-second windows. Dividing that drift out
   leaves the program's own speed. No change to the repository's
   libraries changes the kernel's code; only the workload's heap size
   reaches its time (see [sample]). *)

(* The kernel's time on the reference host: a 2-vCPU x86-64 VM, OCaml
   5.1.1. Wall-clock figures scaled by [factor] read as if measured
   there. *)
let nominal_s = 0.11

let kernel () =
  let st = ref 12345 in
  let a =
    Array.init 200_000 (fun _ ->
        st := ((!st * 1103515245) + 12345) land 0x3fffffff;
        float_of_int !st)
  in
  Array.sort Float.compare a;
  let h = Hashtbl.create 4096 in
  for j = 0 to 99_999 do
    Hashtbl.replace h ((j * 7919) land 0xffff) (Array.length a)
  done;
  let l = ref [] in
  for j = 0 to 199_999 do
    l := j :: !l
  done;
  ignore (Sys.opaque_identity (List.length !l + Hashtbl.length h) : int)

(* One timing of the kernel, between full major collections so that
   neither its garbage nor a previous run's is collected on its clock.
   It runs in the workload's process: in a child process it may land on
   the other vCPU, and it then tracks the host's drift far worse. The
   cost is a coupling to the workload's heap. After a full major
   collection the kernel still runs against the grown heap, about 10%
   slower after a kv-10k repetition than after a compaction. *)
let sample () =
  Gc.full_major ();
  let t0 = Clock.now () in
  kernel ();
  let dt = Clock.now () -. t0 in
  Gc.full_major ();
  dt

(* > 1 when the host runs slower than the reference host. *)
let factor samples = Rep.median samples /. nominal_s
