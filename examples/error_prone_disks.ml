(* SODAerr: commodity disks silently corrupt data. Two servers in this
   10-server cluster return garbage whenever they read their stored
   coded element from disk — and every read still returns the correct
   value, because SODAerr sizes its code as k = n - f - 2e and decodes
   through the errors (syndromes + Berlekamp/Sugiyama + Forney).

     dune exec examples/error_prone_disks.exe
*)

module Engine = Simnet.Engine
module Params = Protocol.Params
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment

let () =
  (* First, the low-level picture, with one [10, 5] code whose
     fragments 8 and 9 come back corrupt. Decoding exactly k fragments
     is a plain erasure decoder: nothing is left to check them against.
     Decoding all n corrects them. *)
  print_endline "-- codec level --";
  let value =
    Bytes.of_string
      (String.concat " "
         (List.init 25 (fun _ -> "precious data that must not be mangled")))
  in
  let code = Mds.rs_bch ~n:10 ~k:5 in
  let received =
    List.map
      (fun f -> if Fragment.index f >= 8 then Fragment.corrupt f ~seed:99 else f)
      (Array.to_list (Mds.encode code value))
  in
  let last_k = List.filteri (fun i _ -> i >= Mds.n code - Mds.k code) received in
  (match Mds.decode code last_k with
  | naive ->
    Printf.printf "k fragments, 2 of them corrupt: %s\n"
      (if Bytes.equal naive value then "correct (lucky)"
       else "GARBAGE returned silently")
  | exception Invalid_argument _ ->
    (* corruption even mangled the length framing *)
    print_endline "k fragments, 2 of them corrupt: GARBAGE (framing destroyed)");
  let corrected = Mds.decode code received in
  Printf.printf "all n fragments, the same 2 corrupt: %s\n\n"
    (if Bytes.equal corrected value then "corrected, value intact"
     else "failed");

  (* Now the full protocol. e = 2 error-prone servers, f = 1 crash. *)
  print_endline "-- protocol level (SODAerr) --";
  let params = Params.make ~n:10 ~f:1 ~e:2 () in
  Printf.printf "n=10, f=1, e=2: code [10, k=n-f-2e=%d], readers wait for k+2e=%d elements\n"
    (Params.k_soda params)
    (Params.k_soda params + (2 * Params.e params));
  let engine =
    Engine.create ~seed:11 ~delay:(Simnet.Delay.uniform ~lo:0.3 ~hi:1.8) ()
  in
  let d =
    Soda.Deployment.deploy ~engine ~params
      ~initial_value:(Bytes.make 256 '\000')
      ~error_prone:[ 2; 7 ] (* these two servers corrupt local reads *)
      ~num_writers:1 ~num_readers:2 ()
  in
  Printf.printf "servers 2 and 7 corrupt every coded element they read from disk\n";
  Soda.Deployment.crash_server d ~coordinate:4 ~at:30.0;

  let ok = ref 0 and total = ref 0 in
  for i = 0 to 4 do
    let payload = Bytes.make 256 (Char.chr (Char.code 'a' + i)) in
    let t = float_of_int i *. 60.0 in
    Soda.Deployment.write d ~writer:0 ~at:t payload;
    incr total;
    Soda.Deployment.read d ~reader:(i mod 2) ~at:(t +. 30.0)
      ~on_done:(fun v ->
        if Bytes.equal v payload then incr ok
        else
          Printf.printf "READ %d RETURNED A CORRUPTED VALUE — would be a bug\n" i)
      ()
  done;
  Engine.run engine;
  Printf.printf
    "%d/%d reads returned the exact written value, through 2 corrupting \
     disks and 1 crashed server\n"
    !ok !total;

  let cost = Soda.Deployment.cost d in
  Printf.printf
    "total storage: %.2f — the price of error tolerance: n/(n-f-2e) = %.2f \
     instead of n/(n-f) = %.2f\n"
    (Protocol.Cost.max_total_storage cost)
    (10.0 /. 5.0) (10.0 /. 9.0);

  (* doubles as a CI smoke test: every read must have decoded through
     the corruption — a single wrong or missing read fails the job *)
  if !ok <> !total then begin
    Printf.eprintf "FAIL: only %d/%d reads returned the written value\n" !ok
      !total;
    exit 1
  end
