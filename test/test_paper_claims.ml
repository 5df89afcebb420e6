(* Capstone: the paper's qualitative claims, asserted as a test. If any
   refactor flips who wins on which axis, this suite fails even though
   every algorithm individually still works. *)

module Params = Protocol.Params
module History = Protocol.History
module Workload = Harness.Workload
module Runner = Harness.Runner
module Metrics = Harness.Metrics

let summarize algo w = Metrics.summarize (Runner.run algo w)

(* The MD-META count lemma (DESIGN.md, "MD-META count lemma"): on the
   broadcast plane of a crash-free run, one dispersal (one [mid]) is
   delivered d + sum_{i<d} (n-1-i) times, d = f+1, and exactly n of
   those are first deliveries, one per server. *)
let md_meta_lemma ~n ~f =
  let d = f + 1 in
  d + List.fold_left ( + ) 0 (List.init d (fun i -> n - 1 - i))

type dispersal = {
  kind : string;
  mutable deliveries : int;
  mutable servers : int list  (* distinct destinations *)
}

(* Run 2 writers and 2 readers in closed loop over a broadcast-plane
   deployment and tap every MD-META delivery, grouped by [mid]. *)
let md_meta_dispersals ?transport ?(loss = 0.0) ?partition ~n ~f ~seed () =
  let module Engine = Simnet.Engine in
  let module M = Soda.Messages in
  let engine =
    Engine.create ~seed ?transport
      ~delay:(Simnet.Delay.uniform ~lo:0.2 ~hi:2.0)
      ()
  in
  if loss > 0.0 then Engine.set_loss engine loss;
  let groups = Hashtbl.create 1024 in
  Engine.set_tap engine
    { Engine.tap_deliver =
        (fun ~time:_ ~src:_ ~dst msg ->
          match msg with
          | M.Md_meta { mid; meta } ->
            let g =
              match Hashtbl.find_opt groups (mid :> int) with
              | Some g -> g
              | None ->
                let kind =
                  match meta with
                  | M.Read_value _ -> "READ-VALUE"
                  | M.Read_complete _ -> "READ-COMPLETE"
                  | M.Read_disperse _ -> "READ-DISPERSE"
                in
                let g = { kind; deliveries = 0; servers = [] } in
                Hashtbl.replace groups (mid :> int) g;
                g
            in
            g.deliveries <- g.deliveries + 1;
            if not (List.mem dst g.servers) then g.servers <- dst :: g.servers
          | _ -> ());
      tap_ack = (fun ~time:_ ~src:_ ~dst:_ ~cumulative:_ ~seq:_ -> ())
    };
  let d =
    Soda.Deployment.deploy ~engine ~params:(Params.make ~n ~f ())
      ~value_len:64 ~num_writers:2 ~num_readers:2 ()
  in
  Option.iter
    (fun (coordinates, at, heal) ->
      Soda.Deployment.partition_servers d ~coordinates ~at;
      Soda.Deployment.heal_servers d ~coordinates ~at:heal)
    partition;
  let rec write_loop w left () =
    if left > 0 then
      Soda.Deployment.write d ~writer:w
        ~at:(Engine.now engine +. 1.0)
        ~on_done:(write_loop w (left - 1))
        (Workload.value ~len:64 ~seed ~index:((10 * w) + left))
  in
  let rec read_loop r left () =
    if left > 0 then
      Soda.Deployment.read d ~reader:r
        ~at:(Engine.now engine +. 1.5)
        ~on_done:(fun _ -> read_loop r (left - 1) ())
        ()
  in
  List.iter (fun c -> write_loop c 6 (); read_loop c 6 ()) [ 0; 1 ];
  Engine.run engine;
  Alcotest.(check bool) "every operation completed" true
    (History.all_complete (Soda.Deployment.history d));
  Alcotest.(check int) "no send abandoned" 0 (Engine.sends_abandoned engine);
  Hashtbl.fold (fun _ g acc -> g :: acc) groups []

let check_md_meta_lemma ~n ~f groups =
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " dispersed") true
        (List.exists (fun g -> g.kind = kind) groups))
    [ "READ-VALUE"; "READ-COMPLETE"; "READ-DISPERSE" ];
  let off_lemma =
    List.filter_map
      (fun g ->
        if g.deliveries = md_meta_lemma ~n ~f && List.length g.servers = n
        then None
        else
          Some
            (Printf.sprintf "%s: %d deliveries to %d servers" g.kind
               g.deliveries (List.length g.servers)))
      groups
  in
  Alcotest.(check (list string))
    (Printf.sprintf "each of %d dispersals: %d deliveries, %d first"
       (List.length groups) (md_meta_lemma ~n ~f) n)
    [] off_lemma

let claims_tests =
  [ Alcotest.test_case
      "Table I orderings hold at f = fmax: SODA wins storage outright; \
       CASGC wins per-op cost; delta makes CASGC storage worst of all"
      `Quick (fun () ->
        let n = 10 in
        let params = Params.make ~n ~f:(Params.fmax ~n) () in
        let w =
          Workload.sequential ~params ~value_len:4096 ~seed:42 ~rounds:4 ()
        in
        let abd = summarize Runner.Abd w in
        let casgc = summarize (Runner.Cas { gc_depth = Some 2 }) w in
        let soda = summarize Runner.Soda w in
        let check name b = Alcotest.(check bool) name true b in
        check "all atomic and live"
          (List.for_all
             (fun s -> s.Metrics.liveness && s.Metrics.atomic)
             [ abd; casgc; soda ]);
        (* storage: SODA far below both; at f = fmax with delta = 2,
           CASGC's (delta+1) * n/(n-2f) = 15 actually exceeds even ABD's
           n = 10 — Table I shows exactly that *)
        check "SODA storage < CASGC storage"
          (soda.Metrics.storage_max < casgc.Metrics.storage_final);
        check "SODA storage < ABD storage"
          (soda.Metrics.storage_max < abd.Metrics.storage_max);
        check "CASGC storage exceeds ABD's at fmax with delta=2"
          (casgc.Metrics.storage_final > abd.Metrics.storage_max);
        check "SODA storage < 2 (n/(n-f) at fmax)"
          (soda.Metrics.storage_max < 2.0);
        (* write cost: CASGC cheapest, ABD = n, SODA pays O(f^2) *)
        check "CASGC write < ABD write"
          (casgc.Metrics.write_cost.mean < abd.Metrics.write_cost.mean);
        check "ABD write < SODA write"
          (abd.Metrics.write_cost.mean < soda.Metrics.write_cost.mean);
        check "SODA write within 5f^2"
          (soda.Metrics.write_cost.max
          <= 5.0 *. float_of_int (Params.f params * Params.f params));
        (* read cost: SODA cheapest when quiescent *)
        check "SODA read < CASGC read"
          (soda.Metrics.read_cost.mean < casgc.Metrics.read_cost.mean);
        check "CASGC read < ABD read"
          (casgc.Metrics.read_cost.mean < abd.Metrics.read_cost.mean));
    Alcotest.test_case
      "the erasure-coding win of the introduction: two orders of magnitude \
       on 100 servers"
      `Quick (fun () ->
        (* "to store a value of 1 TB across a 100 server system, ABD
           blows up the worst-case storage cost to 100 TB ... with an
           [100, 50] MDS code the storage cost is simply 2 TB" *)
        let params = Params.make ~n:100 ~f:49 () in
        let w =
          Workload.sequential ~params ~value_len:8192 ~seed:1 ~rounds:1 ()
        in
        let soda = summarize Runner.Soda w in
        Alcotest.(check bool) "~2 units, not 100" true
          (soda.Metrics.storage_max < 2.1);
        let abd = summarize Runner.Abd w in
        Alcotest.(check bool) "ABD pays 100" true
          (abs_float (abd.Metrics.storage_max -. 100.0) < 1e-6);
        Alcotest.(check bool) "~50x apart" true
          (abd.Metrics.storage_max /. soda.Metrics.storage_max > 45.0));
    Alcotest.test_case
      "CAS without garbage collection accumulates versions; CASGC and SODA \
       do not"
      `Quick (fun () ->
        let params = Params.make ~n:8 ~f:2 () in
        let run rounds algo =
          (summarize algo
             (Workload.sequential ~params ~value_len:1024 ~seed:3 ~rounds ()))
            .Metrics.storage_max
        in
        (* CAS's storage grows linearly in the number of writes *)
        Alcotest.(check bool) "CAS grows" true
          (run 8 (Runner.Cas { gc_depth = None })
          > 1.9 *. run 3 (Runner.Cas { gc_depth = None }));
        (* CASGC's and SODA's do not *)
        Alcotest.(check bool) "CASGC flat" true
          (abs_float
             (run 8 (Runner.Cas { gc_depth = Some 2 })
             -. run 3 (Runner.Cas { gc_depth = Some 2 }))
          < 1e-9);
        Alcotest.(check bool) "SODA flat" true
          (abs_float (run 8 Runner.Soda -. run 3 Runner.Soda) < 1e-9));
    Alcotest.test_case
      "SODA tolerates f = n - k failures where CAS tolerates (n - k) / 2"
      `Quick (fun () ->
        (* claim (iii) of the comparison in Section I-B, read off the
           derived parameters *)
        let params = Params.make ~n:10 ~f:4 () in
        Alcotest.(check int) "SODA k at f=4" 6 (Params.k_soda params);
        Alcotest.(check int) "CAS k at f=4" 2 (Params.k_cas params);
        (* for the same code dimension k = 6, CAS could only tolerate
           (10 - 6) / 2 = 2 crashes *)
        let cas_equivalent = Params.make ~n:10 ~f:2 () in
        Alcotest.(check int) "CAS needs f=2 for k=6" 6
          (Params.k_cas cas_equivalent);
        (* and a SODA deployment codes with exactly that [n, n - f] code *)
        let engine =
          Simnet.Engine.create ~seed:5 ~delay:(Simnet.Delay.constant 1.0) ()
        in
        let d =
          Soda.Deployment.deploy ~engine ~params:(Params.make ~n:7 ~f:2 ())
            ~num_writers:1 ~num_readers:1 ()
        in
        Alcotest.(check string) "SODA codec at n=7, f=2" "rs-bch[7,5]"
          (Erasure.Mds.name (Soda.Deployment.config d).Soda.Config.code));
    Alcotest.test_case
      "MD-META count lemma: every dispersal is delivered exactly \
       d + sum (n-1-i) times"
      `Quick (fun () ->
        Alcotest.(check int) "27 at n=10, f=2" 27 (md_meta_lemma ~n:10 ~f:2);
        Alcotest.(check int) "40 at n=10, f=4" 40 (md_meta_lemma ~n:10 ~f:4);
        (* raw transport *)
        check_md_meta_lemma ~n:10 ~f:2
          (md_meta_dispersals ~n:10 ~f:2 ~seed:3 ());
        (* reliable transport under 20% loss and an f-server partition
           healed later: the channel's dedup hands every logical copy to
           the handler once (a READ-VALUE re-send, [client_retry], is a
           dispersal with its own mid) *)
        check_md_meta_lemma ~n:10 ~f:4
          (md_meta_dispersals
             ~transport:(`Reliable Simnet.Channel.default)
             ~loss:0.2
             ~partition:([ 6; 7; 8; 9 ], 20.0, 220.0)
             ~n:10 ~f:4 ~seed:3 ()));
  ]

let () = Alcotest.run "paper-claims" [ ("claims", claims_tests) ]
