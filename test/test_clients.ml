(* White-box tests of the client automata (Fig. 3 writer, Fig. 4
   reader): the test drives them with hand-crafted server replies, so
   each phase transition is pinned down independently of the server
   implementation. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module History = Protocol.History
module Tag = Protocol.Tag
module Mds = Erasure.Mds

(* A rig where the "servers" are inert recorders and the driver injects
   replies by hand. *)
type rig = {
  engine : Soda.Messages.t Engine.t;
  config : Soda.Config.t;
  servers : int array;  (* fake server pids *)
  server_inbox : (int * Soda.Messages.t) list ref  (* (server pid, msg) *)
}

let make_rig ?(n = 5) ?(f = 2) () =
  let params = Params.make ~n ~f () in
  let engine = Engine.create ~seed:3 ~delay:(Delay.constant 1.0) () in
  let servers =
    Array.init n (fun i -> Engine.reserve engine ~name:(Printf.sprintf "fake%d" i))
  in
  let server_inbox = ref [] in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun ctx ~src:_ msg ->
          server_inbox := (Engine.self ctx, msg) :: !server_inbox))
    servers;
  let config =
    Soda.Config.make ~params ~servers ~initial_value:(Bytes.make 20 'i') ()
  in
  { engine; config; servers; server_inbox }

let reply rig ~from_server ~dst msg =
  Engine.inject rig.engine ~at:(Engine.now rig.engine) rig.servers.(from_server)
    (fun ctx -> Engine.send ctx ~dst msg)

let received rig p = List.filter p (List.rev !(rig.server_inbox))

(* install a real Writer/Reader automaton on a fresh process of the rig *)
module Writer_rig = struct
  type t = { pid : int; automaton : Soda.Writer.t }

  let install rig =
    let pid = Engine.reserve rig.engine ~name:"writer-under-test" in
    let automaton = Soda.Writer.create rig.config in
    Engine.set_handler rig.engine pid (Soda.Writer.handler automaton);
    { pid; automaton }

  let pid t = t.pid

  let invoke rig t ?on_done value =
    Engine.inject rig.engine ~at:0.0 t.pid (fun ctx ->
        ignore (Soda.Writer.invoke t.automaton ctx ~value ?on_done ()))
end

module Reader_rig = struct
  type t = { pid : int; automaton : Soda.Reader.t }

  let install rig =
    let pid = Engine.reserve rig.engine ~name:"reader-under-test" in
    let automaton = Soda.Reader.create rig.config in
    Engine.set_handler rig.engine pid (Soda.Reader.handler automaton);
    { pid; automaton }

  let pid t = t.pid

  let invoke rig t ?on_done () =
    Engine.inject rig.engine ~at:0.0 t.pid (fun ctx ->
        ignore (Soda.Reader.invoke t.automaton ctx ?on_done ()))
end

(* ------------------------------------------------------------------ *)
(* Writer *)

let writer_tests =
  [ Alcotest.test_case
      "write-get goes to all servers; put starts after a majority; tag is \
       max+1"
      `Quick (fun () ->
        let rig = make_rig () in
        let writer = Writer_rig.install rig in
        Writer_rig.invoke rig writer (Bytes.make 20 'v');
        Engine.run rig.engine;
        let gets =
          received rig (fun (_, m) ->
              match m with Soda.Messages.Write_get _ -> true | _ -> false)
        in
        Alcotest.(check int) "n write-gets" 5 (List.length gets);
        (* replies from only 2 servers: below majority (3), no dispersal *)
        reply rig ~from_server:0 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_get_reply { op = 0; tag = Tag.make ~z:4 ~w:7 });
        reply rig ~from_server:1 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_get_reply { op = 0; tag = Tag.make ~z:2 ~w:9 });
        Engine.run rig.engine;
        Alcotest.(check int) "no dispersal yet" 0
          (List.length
             (received rig (fun (_, m) ->
                  match m with Soda.Messages.Md_full _ -> true | _ -> false)));
        (* third reply completes the majority *)
        reply rig ~from_server:2 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_get_reply { op = 0; tag = Tag.make ~z:1 ~w:1 });
        Engine.run rig.engine;
        let fulls =
          received rig (fun (_, m) ->
              match m with Soda.Messages.Md_full _ -> true | _ -> false)
        in
        (* MD-VALUE targets the first f+1 = 3 servers *)
        Alcotest.(check int) "dispersal to D" 3 (List.length fulls);
        List.iter
          (fun (_, m) ->
            match m with
            | Soda.Messages.Md_full { tag; _ } ->
              Alcotest.(check bool) "tag = (5, writer)" true
                (Tag.equal tag (Tag.make ~z:5 ~w:(Writer_rig.pid writer)))
            | _ -> ())
          fulls);
    Alcotest.test_case "completion requires k acknowledgements, deduplicated"
      `Quick (fun () ->
        let rig = make_rig () in
        (* k = n - f = 3 *)
        let writer = Writer_rig.install rig in
        let completed = ref false in
        Writer_rig.invoke rig writer ~on_done:(fun () -> completed := true)
          (Bytes.make 20 'v');
        Engine.run rig.engine;
        for s = 0 to 2 do
          reply rig ~from_server:s ~dst:(Writer_rig.pid writer)
            (Soda.Messages.Write_get_reply { op = 0; tag = Tag.initial })
        done;
        Engine.run rig.engine;
        let tw = Tag.make ~z:1 ~w:(Writer_rig.pid writer) in
        (* two acks, then the same server acking repeatedly: no completion *)
        reply rig ~from_server:0 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_ack { op = 0; tag = tw });
        reply rig ~from_server:1 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_ack { op = 0; tag = tw });
        reply rig ~from_server:1 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_ack { op = 0; tag = tw });
        Engine.run rig.engine;
        Alcotest.(check bool) "not yet" false !completed;
        (* a third distinct server completes the write *)
        reply rig ~from_server:4 ~dst:(Writer_rig.pid writer)
          (Soda.Messages.Write_ack { op = 0; tag = tw });
        Engine.run rig.engine;
        Alcotest.(check bool) "completed" true !completed;
        Alcotest.(check bool) "history response recorded" true
          (History.all_complete rig.config.Soda.Config.history))
  ]

(* ------------------------------------------------------------------ *)
(* Reader *)

let reader_tests =
  [ Alcotest.test_case
      "read-get polls everyone; registration carries the majority max tag"
      `Quick (fun () ->
        let rig = make_rig () in
        let reader = Reader_rig.install rig in
        Reader_rig.invoke rig reader ();
        Engine.run rig.engine;
        Alcotest.(check int) "n read-gets" 5
          (List.length
             (received rig (fun (_, m) ->
                  match m with Soda.Messages.Read_get _ -> true | _ -> false)));
        List.iteri
          (fun i z ->
            reply rig ~from_server:i ~dst:(Reader_rig.pid reader)
              (Soda.Messages.Read_get_reply { rid = 0; tag = Tag.make ~z ~w:2 }))
          [ 3; 7; 5 ];
        Engine.run rig.engine;
        let read_values =
          received rig (fun (_, m) ->
              match m with
              | Soda.Messages.Md_meta
                  { meta = Soda.Messages.Read_value { tr; _ }; _ } ->
                Tag.equal tr (Tag.make ~z:7 ~w:2)
              | _ -> false)
        in
        (* MD-META targets the first f+1 = 3 servers, with the max tag *)
        Alcotest.(check int) "registration dispersal" 3
          (List.length read_values));
    Alcotest.test_case
      "decoding needs k distinct coded elements of one tag; duplicates and \
       other tags do not count"
      `Quick (fun () ->
        let rig = make_rig () in
        (* k = 3 *)
        let reader = Reader_rig.install rig in
        let result = ref None in
        Reader_rig.invoke rig reader ~on_done:(fun v -> result := Some v) ();
        Engine.run rig.engine;
        for s = 0 to 2 do
          reply rig ~from_server:s ~dst:(Reader_rig.pid reader)
            (Soda.Messages.Read_get_reply { rid = 0; tag = Tag.initial })
        done;
        Engine.run rig.engine;
        let value = Bytes.of_string "the decoded register payload" in
        let t1 = Tag.make ~z:1 ~w:9 and t2 = Tag.make ~z:2 ~w:9 in
        let frags1 = Mds.encode rig.config.Soda.Config.code value in
        let send_frag ~tag ~index ~from_server =
          reply rig ~from_server ~dst:(Reader_rig.pid reader)
            (Soda.Messages.Relay { rid = 0; tag; fragment = frags1.(index) })
        in
        (* 2 elements of t1, 2 of t2, plus a duplicate index of t1 *)
        send_frag ~tag:t1 ~index:0 ~from_server:0;
        send_frag ~tag:t1 ~index:1 ~from_server:1;
        send_frag ~tag:t1 ~index:1 ~from_server:1;
        send_frag ~tag:t2 ~index:2 ~from_server:2;
        send_frag ~tag:t2 ~index:3 ~from_server:3;
        Engine.run rig.engine;
        Alcotest.(check bool) "not decodable yet" true (!result = None);
        (* a third distinct element of t1 completes the read *)
        send_frag ~tag:t1 ~index:4 ~from_server:4;
        Engine.run rig.engine;
        (match !result with
        | Some v -> Alcotest.(check bool) "value" true (Bytes.equal v value)
        | None -> Alcotest.fail "read did not complete");
        (* and READ-COMPLETE was dispersed *)
        Alcotest.(check bool) "read-complete sent" true
          (received rig (fun (_, m) ->
               match m with
               | Soda.Messages.Md_meta
                   { meta = Soda.Messages.Read_complete _; _ } ->
                 true
               | _ -> false)
          <> []);
        (* the returned tag is recorded in the history *)
        let record =
          List.find
            (fun r -> r.History.op = 0)
            (History.records rig.config.Soda.Config.history)
        in
        Alcotest.(check bool) "history tag" true
          (record.History.tag = Some t1))
  ]

let () =
  Alcotest.run "clients"
    [ ("writer", writer_tests); ("reader", reader_tests) ]
