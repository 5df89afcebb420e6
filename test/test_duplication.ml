(* At-least-once channels: every message may be delivered twice at
   independent delays. The paper assumes exactly-once reliable channels,
   but all four algorithms are built from idempotent steps (dedup by
   message id, by server id, by fragment index), so they should — and do
   — tolerate duplication unchanged. This suite pins that down. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Atomicity = Protocol.Atomicity
module Tag = Protocol.Tag

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let engine_with_dup seed =
  Engine.create ~seed ~duplication:0.35 ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0)
    ()

let accept ~initial_value history =
  History.all_complete history
  && Atomicity.check_tagged ~initial_value (History.records history) = Ok ()

let duplication_tests =
  [ qtest "SODA: liveness + atomicity under 35% duplication"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:2 () in
        let engine = engine_with_dup seed in
        let initial_value = Harness.Workload.value ~len:96 ~seed ~index:999 in
        let d =
          Soda.Deployment.deploy ~engine ~params ~initial_value ~num_writers:2
            ~num_readers:2 ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Soda.Deployment.write d ~writer:(i mod 2) ~at:t
            (Harness.Workload.value ~len:96 ~seed ~index:i);
          Soda.Deployment.read d ~reader:(i mod 2) ~at:(t +. 25.0) ()
        done;
        Engine.run engine;
        accept ~initial_value (Soda.Deployment.history d));
    qtest "SODA: duplication does not double-charge data costs"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        (* costs are charged at send; duplicated *deliveries* must not
           change any per-operation data cost compared to a clean run...
           they do add duplicate Sent events, so instead we pin the
           invariant that matters: quiescent read cost never exceeds the
           n/(n-f) formula even with duplicated relays, because relays
           are charged once when the server sends them. It can dip below
           n fragments: the reader's READ-COMPLETE (whose duplicate
           transmission arrives at the min of two delay draws) may
           overtake a READ-VALUE still in flight to a slow server, whose
           tombstone then suppresses that relay — but never below the
           decode threshold, since the read cannot finish on fewer. *)
        let params = Params.make ~n:6 ~f:2 () in
        let value_len = 240 in
        let engine = engine_with_dup seed in
        let d =
          Soda.Deployment.deploy ~engine ~params
            ~initial_value:(Bytes.make value_len '0') ~value_len
            ~num_writers:1 ~num_readers:1 ()
        in
        Soda.Deployment.write d ~writer:0 ~at:0.0 (Bytes.make value_len 'a');
        Soda.Deployment.read d ~reader:0 ~at:80.0 ();
        Engine.run engine;
        let frag =
          Erasure.Splitter.fragment_size ~k:(Params.k_soda params) ~value_len
        in
        let per_frag = float_of_int frag /. float_of_int value_len in
        let ceiling = 6.0 *. per_frag in
        (* e = 0 here, so the decode threshold is k itself *)
        let floor_ = float_of_int (Params.k_soda params) *. per_frag in
        let cost = Protocol.Cost.comm_of_op (Soda.Deployment.cost d) ~op:1 in
        cost <= ceiling +. 1e-9 && cost >= floor_ -. 1e-9);
    qtest "ABD: liveness + atomicity under duplication"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine = engine_with_dup seed in
        let initial_value = Harness.Workload.value ~len:96 ~seed ~index:999 in
        let d =
          Baselines.Abd.deploy ~engine ~params ~initial_value ~num_writers:2
            ~num_readers:2 ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Baselines.Abd.write d ~writer:(i mod 2) ~at:t
            (Harness.Workload.value ~len:96 ~seed ~index:i);
          Baselines.Abd.read d ~reader:(i mod 2) ~at:(t +. 25.0) ()
        done;
        Engine.run engine;
        accept ~initial_value (Baselines.Abd.history d));
    qtest "CASGC: liveness + atomicity under duplication"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:8 ~f:2 () in
        let engine = engine_with_dup seed in
        let initial_value = Harness.Workload.value ~len:96 ~seed ~index:999 in
        let d =
          Baselines.Cas.deploy ~engine ~params ~gc_depth:3 ~initial_value
            ~num_writers:2 ~num_readers:2 ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Baselines.Cas.write d ~writer:(i mod 2) ~at:t
            (Harness.Workload.value ~len:96 ~seed ~index:i);
          Baselines.Cas.read d ~reader:(i mod 2) ~at:(t +. 25.0) ()
        done;
        Engine.run engine;
        accept ~initial_value (Baselines.Cas.history d));
    qtest "LDR: liveness + atomicity under duplication"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:5 ~f:2 () in
        let engine = engine_with_dup seed in
        let initial_value = Harness.Workload.value ~len:96 ~seed ~index:999 in
        let d =
          Baselines.Ldr.deploy ~engine ~params ~initial_value ~num_writers:2
            ~num_readers:2 ()
        in
        for i = 0 to 3 do
          let t = float_of_int i *. 60.0 in
          Baselines.Ldr.write d ~writer:(i mod 2) ~at:t
            (Harness.Workload.value ~len:96 ~seed ~index:i);
          Baselines.Ldr.read d ~reader:(i mod 2) ~at:(t +. 25.0) ()
        done;
        Engine.run engine;
        accept ~initial_value (Baselines.Ldr.history d));
    qtest "MD-VALUE IOA: duplication cannot cause double delivery"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:3 () in
        let engine = engine_with_dup seed in
        let d = Md_ioa.deploy ~engine ~params () in
        Md_ioa.send d ~at:0.0 ~tag:(Tag.make ~z:1 ~w:3)
          ~value:(Bytes.make 40 'd');
        Engine.run engine;
        let deliveries = Md_ioa.deliveries d in
        List.length deliveries = 7
        && List.length
             (List.sort_uniq compare
                (List.map (fun dv -> dv.Md_ioa.server) deliveries))
           = 7)
  ]

let () =
  Alcotest.run "duplication" [ ("at-least-once", duplication_tests) ]
