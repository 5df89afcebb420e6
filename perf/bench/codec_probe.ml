(* Direct [Mds.encode]/[Mds.decode] timing on the codec a workload's
   deployment actually runs, at the workload's value size. Decode gets
   what a SODA reader hands the decoder: a seeded choice of
   [decode_threshold] clean fragments in index order. *)

module Mds = Erasure.Mds

(* Median seconds per call of [f] over 21 batches, each batch sized to
   last at least 2 ms. *)
let per_call f =
  f ();
  let calls = ref 1 in
  let batch () =
    let t0 = Clock.now () in
    for _ = 1 to !calls do
      f ()
    done;
    Clock.now () -. t0
  in
  while batch () < 0.002 do
    calls := !calls * 2
  done;
  Rep.median (List.init 21 (fun _ -> batch () /. float_of_int !calls))

type t = { encode_us : float; decode_us : float }

let run ~code ~value_len ~decode_threshold ~seed =
  let value = Harness.Workload.value ~len:value_len ~seed ~index:777_777 in
  let fragments = Mds.encode code value in
  let order = Array.init (Mds.n code) Fun.id in
  Simnet.Rng.shuffle_in_place (Simnet.Rng.create seed) order;
  let chosen =
    Array.to_list (Array.sub order 0 decode_threshold)
    |> List.sort Int.compare
    |> List.map (fun i -> fragments.(i))
  in
  if not (Bytes.equal (Mds.decode code chosen) value) then
    Error (Printf.sprintf "codec probe: %s decode mismatch" (Mds.name code))
  else
    Ok
      { encode_us =
          1e6
          *. per_call (fun () ->
                 ignore (Mds.encode code value : Erasure.Fragment.t array));
        decode_us =
          1e6 *. per_call (fun () -> ignore (Mds.decode code chosen : bytes))
      }
