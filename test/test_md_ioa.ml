(* Tests of the literal IO-Automata rendering of MD-VALUE (Figs. 1-2):
   Theorem 3.1 (validity, uniformity) under crashes interleaved at step
   granularity, and Theorem 3.2 (no state bloat after delivery). *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module Tag = Protocol.Tag
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment

let same_fragment a b =
  Fragment.index a = Fragment.index b
  && Bytes.equal (Fragment.data a) (Fragment.data b)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let make ?(n = 7) ?(f = 3) ?(seed = 1) ?(step = 0.5) () =
  let params = Params.make ~n ~f () in
  let engine = Engine.create ~seed ~delay:(Delay.uniform ~lo:0.3 ~hi:2.0) () in
  let d = Md_ioa.deploy ~engine ~params ~step () in
  (params, engine, d)

let ioa_tests =
  [ Alcotest.test_case
      "crash-free dispersal: every server delivers its own coded element \
       exactly once, sender gets the ack"
      `Quick (fun () ->
        let params, engine, d = make () in
        let tag = Tag.make ~z:1 ~w:100 in
        let value = Bytes.of_string "a payload for the IOA rendering" in
        Md_ioa.send d ~at:0.0 ~tag ~value;
        Engine.run engine;
        let deliveries = Md_ioa.deliveries d in
        Alcotest.(check int) "n deliveries" 7 (List.length deliveries);
        let expected =
          Mds.encode (Mds.rs_bch ~n:7 ~k:(Params.k_soda params)) value
        in
        List.iter
          (fun { Md_ioa.server; tag = t; fragment } ->
            Alcotest.(check bool) "tag" true (Tag.equal t tag);
            Alcotest.(check bool)
              (Printf.sprintf "server %d coded element" server)
              true
              (same_fragment fragment expected.(server)))
          deliveries;
        let distinct =
          List.sort_uniq compare
            (List.map (fun d -> d.Md_ioa.server) deliveries)
        in
        Alcotest.(check int) "each exactly once" 7 (List.length distinct);
        Alcotest.(check int) "acked" 1 (List.length (Md_ioa.acked d)));
    qtest ~count:150
      "Thm 3.1 uniformity: sender + f servers crash at arbitrary steps"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 12.0 >>= fun sender_crash ->
        triple (float_range 0.0 20.0) (float_range 0.0 20.0)
          (float_range 0.0 20.0)
        >>= fun (t1, t2, t3) ->
        shuffle_a (Array.init 7 (fun i -> i)) >|= fun perm ->
        (seed, sender_crash, [ (perm.(0), t1); (perm.(1), t2); (perm.(2), t3) ]))
      (fun (seed, sender_crash, crashes) ->
        let _, engine, d = make ~seed () in
        Md_ioa.send d ~at:0.0 ~tag:(Tag.make ~z:1 ~w:100)
          ~value:(Bytes.make 40 'u');
        Md_ioa.crash_sender d ~at:sender_crash;
        List.iter
          (fun (index, at) -> Md_ioa.crash_server d ~index ~at)
          crashes;
        Engine.run engine;
        let crashed index =
          List.exists (fun (i, _) -> i = index) crashes
        in
        let delivered index =
          List.exists
            (fun dv -> dv.Md_ioa.server = index)
            (Md_ioa.deliveries d)
        in
        let live = List.filter (fun i -> not (crashed i)) (List.init 7 Fun.id) in
        (* uniformity: all live servers deliver, or none does *)
        List.for_all delivered live || List.for_all (fun i -> not (delivered i)) live);
    qtest ~count:150 "Thm 3.1 validity holds under every crash pattern"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 15.0 >|= fun crash_at -> (seed, crash_at))
      (fun (seed, crash_at) ->
        let params, engine, d = make ~seed () in
        let value = Bytes.make 64 'w' in
        let tag = Tag.make ~z:2 ~w:55 in
        Md_ioa.send d ~at:0.0 ~tag ~value;
        Md_ioa.crash_sender d ~at:crash_at;
        Engine.run engine;
        let expected =
          Mds.encode (Mds.rs_bch ~n:7 ~k:(Params.k_soda params)) value
        in
        List.for_all
          (fun { Md_ioa.server; tag = t; fragment } ->
            Tag.equal t tag && same_fragment fragment expected.(server))
          (Md_ioa.deliveries d));
    qtest ~count:100
      "Thm 3.2: after quiescence no automaton retains value bytes"
      QCheck2.Gen.(
        int_range 0 100_000 >>= fun seed ->
        float_range 0.0 15.0 >|= fun crash_at -> (seed, crash_at))
      (fun (seed, crash_at) ->
        let _, engine, d = make ~seed () in
        Md_ioa.send d ~at:0.0 ~tag:(Tag.make ~z:1 ~w:9)
          ~value:(Bytes.make 100 'z');
        Md_ioa.send d ~at:50.0 ~tag:(Tag.make ~z:2 ~w:9)
          ~value:(Bytes.make 100 'y');
        Md_ioa.crash_server d ~index:(seed mod 7) ~at:crash_at;
        Engine.run engine;
        (* the theorem allows crashed automata to be in any state; all
           others must have dropped every payload *)
        Md_ioa.sender_retained_payloads d = 0
        && List.for_all
             (fun index ->
               index = seed mod 7
               || Md_ioa.server_retained_payloads d ~index = 0)
             (List.init 7 Fun.id));
    Alcotest.test_case
      "sender crash mid-send_buff: prefix of D gets the full value, \
       uniformity still holds"
      `Quick (fun () ->
        (* step = 2.0 and crash at 3.0: exactly two send actions happen *)
        let params = Params.make ~n:7 ~f:3 () in
        let engine = Engine.create ~seed:3 ~delay:(Delay.constant 1.0) () in
        let d = Md_ioa.deploy ~engine ~params ~step:2.0 () in
        Md_ioa.send d ~at:0.0 ~tag:(Tag.make ~z:1 ~w:1)
          ~value:(Bytes.make 30 'p');
        Md_ioa.crash_sender d ~at:3.0;
        Engine.run engine;
        (* servers 0 and 1 of D received directly; everyone must still
           deliver via relays *)
        Alcotest.(check int) "all deliver" 7
          (List.length (Md_ioa.deliveries d));
        Alcotest.(check int) "no ack from the dead sender" 0
          (List.length (Md_ioa.acked d)))
  ]

let () = Alcotest.run "md-ioa" [ ("figs-1-2", ioa_tests) ]
