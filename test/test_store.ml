(* Tests of the multi-object composition layer (Store): independent
   registers on a shared fleet, machine-wide crash/repair, per-object
   atomicity, and cross-object concurrency from a single client. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let store_tests =
  [ Alcotest.test_case "objects are independent registers" `Quick (fun () ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine = Engine.create ~seed:1 ~delay:(Delay.constant 1.0) () in
        let store =
          Soda.Store.create ~engine ~params
            ~objects:[ "alpha"; "beta"; "gamma" ] ~num_writers:1
            ~num_readers:1 ()
        in
        let results = Hashtbl.create 4 in
        List.iter
          (fun obj ->
            Soda.Store.write store ~obj ~writer:0 ~at:0.0
              (Bytes.of_string ("value of " ^ obj));
            Soda.Store.read store ~obj ~reader:0 ~at:50.0
              ~on_done:(fun v -> Hashtbl.replace results obj v)
              ())
          [ "alpha"; "beta"; "gamma" ];
        Engine.run engine;
        List.iter
          (fun obj ->
            match Hashtbl.find_opt results obj with
            | Some v ->
              Alcotest.(check string) obj ("value of " ^ obj) (Bytes.to_string v)
            | None -> Alcotest.fail (obj ^ ": read did not complete"))
          [ "alpha"; "beta"; "gamma" ];
        Alcotest.(check bool) "atomic" true
          (Soda.Store.check_atomicity store = Ok ()));
    Alcotest.test_case "one client can work on two objects concurrently"
      `Quick (fun () ->
        (* well-formedness is per object: writer 0 writes alpha and beta
           at the same instant without violating it *)
        let params = Params.make ~n:5 ~f:1 () in
        let engine = Engine.create ~seed:2 ~delay:(Delay.constant 1.0) () in
        let store =
          Soda.Store.create ~engine ~params ~objects:[ "alpha"; "beta" ]
            ~num_writers:1 ~num_readers:1 ()
        in
        Soda.Store.write store ~obj:"alpha" ~writer:0 ~at:0.0
          (Bytes.of_string "a");
        Soda.Store.write store ~obj:"beta" ~writer:0 ~at:0.0
          (Bytes.of_string "b");
        Engine.run engine;
        Alcotest.(check bool) "both complete" true
          (Soda.Store.all_complete store));
    Alcotest.test_case "machine crash and repair span all objects" `Quick
      (fun () ->
        let params = Params.make ~n:5 ~f:1 () in
        let engine = Engine.create ~seed:3 ~delay:(Delay.constant 1.0) () in
        let store =
          Soda.Store.create ~engine ~params ~objects:[ "x"; "y" ]
            ~num_writers:1 ~num_readers:1 ()
        in
        List.iter
          (fun obj ->
            Soda.Store.write store ~obj ~writer:0 ~at:0.0
              (Bytes.of_string (obj ^ "-v1")))
          [ "x"; "y" ];
        Soda.Store.crash_server store ~coordinate:2 ~at:20.0;
        Soda.Store.repair_server store ~coordinate:2 ~at:60.0;
        (* after repair, a different machine dies; reads on both objects
           must still work *)
        Soda.Store.crash_server store ~coordinate:0 ~at:100.0;
        let results = ref 0 in
        List.iter
          (fun obj ->
            Soda.Store.read store ~obj ~reader:0 ~at:150.0
              ~on_done:(fun v ->
                if Bytes.equal v (Bytes.of_string (obj ^ "-v1")) then
                  incr results)
              ())
          [ "x"; "y" ];
        Engine.run engine;
        Alcotest.(check int) "both reads correct" 2 !results;
        Alcotest.(check bool) "atomic" true
          (Soda.Store.check_atomicity store = Ok ()));
    Alcotest.test_case "total storage sums the registers" `Quick (fun () ->
        let params = Params.make ~n:6 ~f:2 () in
        let engine = Engine.create ~seed:4 ~delay:(Delay.constant 1.0) () in
        let value_len = 512 in
        let objects = [ "a"; "b"; "c"; "d" ] in
        let store =
          Soda.Store.create ~engine ~params ~objects ~value_len ~num_writers:1
            ~num_readers:1 ()
        in
        List.iter
          (fun obj ->
            Soda.Store.write store ~obj ~writer:0 ~at:0.0
              (Bytes.make value_len 'z'))
          objects;
        Engine.run engine;
        let per_register =
          float_of_int
            (6 * Erasure.Splitter.fragment_size ~k:4 ~value_len)
          /. float_of_int value_len
        in
        Alcotest.(check (float 1e-9)) "4 registers"
          (4.0 *. per_register)
          (Soda.Store.total_storage store));
    Alcotest.test_case "unknown object rejected; duplicates rejected" `Quick
      (fun () ->
        let params = Params.make ~n:5 ~f:1 () in
        let engine = Engine.create ~seed:5 ~delay:(Delay.constant 1.0) () in
        let store =
          Soda.Store.create ~engine ~params ~objects:[ "only" ] ~num_writers:1
            ~num_readers:1 ()
        in
        Alcotest.(check bool) "unknown" true
          (match Soda.Store.write store ~obj:"nope" ~writer:0 ~at:0.0 Bytes.empty
           with
          | exception Invalid_argument _ -> true
          | _ -> false);
        let engine2 = Engine.create ~seed:6 ~delay:(Delay.constant 1.0) () in
        Alcotest.(check bool) "duplicates" true
          (match
             Soda.Store.create ~engine:engine2 ~params
               ~objects:[ "a"; "a" ] ~num_writers:1 ~num_readers:1 ()
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    qtest "random multi-object workloads stay atomic per object"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let params = Params.make ~n:7 ~f:2 () in
        let engine =
          Engine.create ~seed ~delay:(Delay.uniform ~lo:0.2 ~hi:2.0) ()
        in
        let objects = [ "k1"; "k2"; "k3" ] in
        let store =
          Soda.Store.create ~engine ~params ~objects ~num_writers:2
            ~num_readers:2 ()
        in
        let rng = Simnet.Rng.create seed in
        (* clients hop between objects; per-object ops spaced far enough
           apart for single-lane clients *)
        for i = 0 to 11 do
          let obj = List.nth objects (i mod 3) in
          let t = float_of_int i *. 60.0 in
          Soda.Store.write store ~obj
            ~writer:(Simnet.Rng.int rng 2)
            ~at:t
            (Harness.Workload.value ~len:64 ~seed ~index:i);
          Soda.Store.read store ~obj
            ~reader:(Simnet.Rng.int rng 2)
            ~at:(t +. 30.0)
            ()
        done;
        Engine.run engine;
        Soda.Store.all_complete store
        && Soda.Store.check_atomicity store = Ok ())
  ]

let () = Alcotest.run "store" [ ("store", store_tests) ]
