(* White-box tests of the message-disperse primitives (Section III) and
   the server automaton's Fig. 5 transitions, driven by crafted messages
   from a test-driver process rather than by the full client automata. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module Tag = Protocol.Tag
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment

(* A rig: an n-server SODA deployment plus one driver process that can
   send arbitrary protocol messages and records everything it
   receives. *)
type rig = {
  engine : Soda.Messages.t Engine.t;
  deployment : Soda.Deployment.t;
  driver : int;
  inbox : (int * Soda.Messages.t) list ref  (* (src, message), reversed *)
}

let make_rig ?(n = 5) ?(f = 1) ?(delay = Delay.constant 1.0) ?(seed = 1) () =
  let params = Params.make ~n ~f () in
  let engine = Engine.create ~seed ~delay () in
  let deployment =
    Soda.Deployment.deploy ~engine ~params ~initial_value:(Bytes.make 40 'i')
      ~num_writers:1 ~num_readers:1 ()
  in
  (* the server-step tests read registrations and relays from the probe *)
  Protocol.Probe.record (Soda.Deployment.probe deployment);
  let driver = Engine.reserve engine ~name:"driver" in
  let inbox = ref [] in
  Engine.set_handler engine driver (fun _ ~src msg ->
      inbox := (src, msg) :: !inbox);
  { engine; deployment; driver; inbox }

let send_at rig ~at ~dst msg =
  Engine.inject rig.engine ~at rig.driver (fun ctx -> Engine.send ctx ~dst msg)

let server_pid rig c = Soda.Deployment.server_pid rig.deployment ~coordinate:c
let server rig c = Soda.Deployment.server rig.deployment ~coordinate:c
let code rig = (Soda.Deployment.config rig.deployment).Soda.Config.code

let received rig p = List.filter p (List.rev !(rig.inbox))

let mid rig seq = Soda.Messages.mid ~origin:rig.driver ~seq

(* a full-value dispersal message as the writer would send it *)
let md_full rig ~seq ~tag ~value =
  Soda.Messages.Md_full { mid = mid rig seq; op = 900 + seq; tag; value }

let read_value ~rid ~reader ~tr =
  Soda.Messages.Md_meta
    { mid = Soda.Messages.mid ~origin:reader ~seq:(7000 + rid);
      meta = Soda.Messages.Read_value { rid; reader; tr }
    }

let read_complete ~rid ~reader ~tr ~seq =
  Soda.Messages.Md_meta
    { mid = Soda.Messages.mid ~origin:reader ~seq;
      meta = Soda.Messages.Read_complete { rid; reader; tr }
    }

let read_disperse ~origin ~seq ~tag ~server_index ~rid =
  Soda.Messages.Md_meta
    { mid = Soda.Messages.mid ~origin ~seq;
      meta = Soda.Messages.Read_disperse { tag; server_index; rid }
    }

(* ------------------------------------------------------------------ *)
(* MD-VALUE *)

let md_value_tests =
  [ Alcotest.test_case "validity: every server delivers its own coded element"
      `Quick (fun () ->
        let rig = make_rig () in
        (* the driver plays writer: tag's writer id = driver pid so acks
           come back to it *)
        let tag = Tag.make ~z:1 ~w:rig.driver in
        let value = Bytes.of_string "forty-two bytes of payload for SODA!" in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:0 ~tag ~value);
        Engine.run rig.engine;
        let expected = Mds.encode (code rig) value in
        List.iteri
          (fun c _ ->
            let s = server rig c in
            Alcotest.(check bool)
              (Printf.sprintf "server %d stored tag" c)
              true
              (Tag.equal (Soda.Server.stored_tag s) tag))
          (List.init 5 Fun.id);
        (* fragment correctness is visible through a read: decoding the
           stored fragments must reproduce the value; we check
           coordinate-level equality through the ack count and the
           expected array length here *)
        Alcotest.(check int) "n coded elements" 5 (Array.length expected));
    Alcotest.test_case
      "uniformity: one Md_full to a single D-server reaches everyone" `Quick
      (fun () ->
        (* models the writer crashing after its very first send *)
        let rig = make_rig ~n:7 ~f:2 () in
        let tag = Tag.make ~z:1 ~w:rig.driver in
        let value = Bytes.make 30 'V' in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:0 ~tag ~value);
        Engine.run rig.engine;
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "server %d adopted" c)
              true
              (Tag.equal (Soda.Server.stored_tag (server rig c)) tag))
          (List.init 7 Fun.id));
    Alcotest.test_case "each server acknowledges a dispersal exactly once"
      `Quick (fun () ->
        let rig = make_rig () in
        let tag = Tag.make ~z:1 ~w:rig.driver in
        let value = Bytes.make 30 'V' in
        (* send the same mid to both D members: plenty of duplicate
           paths, but dedup must keep delivery unique *)
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:0 ~tag ~value);
        send_at rig ~at:0.0 ~dst:(server_pid rig 1)
          (md_full rig ~seq:0 ~tag ~value);
        Engine.run rig.engine;
        let acks =
          received rig (fun (_, m) ->
              match m with Soda.Messages.Write_ack _ -> true | _ -> false)
        in
        Alcotest.(check int) "n acks" 5 (List.length acks);
        let distinct_sources =
          List.sort_uniq compare (List.map fst acks)
        in
        Alcotest.(check int) "from distinct servers" 5
          (List.length distinct_sources));
    Alcotest.test_case
      "a coded element sent only to an outside-D server goes nowhere else"
      `Quick (fun () ->
        let rig = make_rig () in
        let tag = Tag.make ~z:1 ~w:rig.driver in
        let value = Bytes.make 30 'V' in
        let fragments = Mds.encode (code rig) value in
        send_at rig ~at:0.0 ~dst:(server_pid rig 4)
          (Soda.Messages.Md_coded
             { mid = mid rig 0; op = 900; tag; fragment = fragments.(4) });
        Engine.run rig.engine;
        Alcotest.(check bool) "server 4 adopted" true
          (Tag.equal (Soda.Server.stored_tag (server rig 4)) tag);
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "server %d untouched" c)
              true
              (Tag.equal (Soda.Server.stored_tag (server rig c)) Tag.initial))
          [ 0; 1; 2; 3 ]);
    Alcotest.test_case "older dispersals do not overwrite newer tags" `Quick
      (fun () ->
        let rig = make_rig () in
        let newer = Tag.make ~z:5 ~w:rig.driver in
        let older = Tag.make ~z:2 ~w:rig.driver in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:0 ~tag:newer ~value:(Bytes.make 30 'N'));
        send_at rig ~at:50.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:1 ~tag:older ~value:(Bytes.make 30 'O'));
        Engine.run rig.engine;
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "server %d keeps newer" c)
              true
              (Tag.equal (Soda.Server.stored_tag (server rig c)) newer))
          (List.init 5 Fun.id);
        (* the older dispersal is still acknowledged (liveness of its
           writer) *)
        let acks =
          received rig (fun (_, m) ->
              match m with
              | Soda.Messages.Write_ack { tag; _ } -> Tag.equal tag older
              | _ -> false)
        in
        Alcotest.(check int) "old write still acked by all" 5
          (List.length acks))
  ]

(* ------------------------------------------------------------------ *)
(* Server transitions (Fig. 5) *)

let server_tests =
  [ Alcotest.test_case "WRITE-GET and READ-GET return the stored tag" `Quick
      (fun () ->
        let rig = make_rig () in
        send_at rig ~at:0.0 ~dst:(server_pid rig 2)
          (Soda.Messages.Write_get { op = 1 });
        send_at rig ~at:0.0 ~dst:(server_pid rig 2)
          (Soda.Messages.Read_get { rid = 2 });
        Engine.run rig.engine;
        let replies = received rig (fun _ -> true) in
        Alcotest.(check int) "two replies" 2 (List.length replies);
        List.iter
          (fun (_, m) ->
            match m with
            | Soda.Messages.Write_get_reply { tag; _ }
            | Soda.Messages.Read_get_reply { tag; _ } ->
              Alcotest.(check bool) "initial tag" true (Tag.equal tag Tag.initial)
            | _ -> Alcotest.fail "unexpected reply")
          replies);
    Alcotest.test_case "READ-VALUE registers and relays when t >= tr" `Quick
      (fun () ->
        let rig = make_rig () in
        (* MD-META dispersals enter via the set D of the first f+1
           servers, in order — so a crash-truncated dispersal is always a
           prefix of D, and sending only to coordinate 0 models a sender
           that crashed after its first send *)
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (read_value ~rid:11 ~reader:rig.driver ~tr:Tag.initial);
        Engine.run rig.engine;
        (* registration went through MD, so every server registered
           (visible in the probe log), every server relayed its stored
           element once — and then the k-threshold (Thm 5.5) unregistered
           them all again, driver silence notwithstanding *)
        let probe = Soda.Deployment.probe rig.deployment in
        let count p =
          List.length (List.filter p (Protocol.Probe.events probe))
        in
        Alcotest.(check int) "5 registrations" 5
          (count (function
            | Protocol.Probe.Registered { rid = 11; _ } -> true
            | _ -> false));
        Alcotest.(check int) "5 unregistrations" 5
          (count (function
            | Protocol.Probe.Unregistered { rid = 11; _ } -> true
            | _ -> false));
        let relays =
          received rig (fun (_, m) ->
              match m with
              | Soda.Messages.Relay { rid = 11; _ } -> true
              | _ -> false)
        in
        Alcotest.(check int) "n relays" 5 (List.length relays);
        List.iter
          (fun c ->
            Alcotest.(check (list int))
              (Printf.sprintf "server %d eventually unregistered" c)
              []
              (Soda.Server.registered_reads (server rig c)))
          (List.init 5 Fun.id));
    Alcotest.test_case "READ-VALUE with tr above the stored tag: no relay \
                        until a matching write arrives"
      `Quick (fun () ->
        let rig = make_rig () in
        let future = Tag.make ~z:3 ~w:999 in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (read_value ~rid:12 ~reader:rig.driver ~tr:future);
        Engine.run rig.engine;
        Alcotest.(check int) "no relay yet" 0
          (List.length
             (received rig (fun (_, m) ->
                  match m with Soda.Messages.Relay _ -> true | _ -> false)));
        Alcotest.(check (list int)) "still registered" [ 12 ]
          (Soda.Server.registered_reads (server rig 0));
        (* now a write with tag >= tr flows in (z = 4 beats tr's z = 3
           regardless of writer ids) *)
        send_at rig ~at:100.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:1 ~tag:(Tag.make ~z:4 ~w:rig.driver)
             ~value:(Bytes.make 30 'W'));
        Engine.run rig.engine;
        let relays =
          received rig (fun (_, m) ->
              match m with
              | Soda.Messages.Relay { rid = 12; _ } -> true
              | _ -> false)
        in
        Alcotest.(check int) "now all servers relay" 5 (List.length relays));
    Alcotest.test_case
      "READ-COMPLETE before READ-VALUE leaves a tombstone: no registration"
      `Quick (fun () ->
        let rig = make_rig () in
        let s0 = server_pid rig 0 in
        (* completion first *)
        send_at rig ~at:0.0 ~dst:s0
          (read_complete ~rid:13 ~reader:rig.driver ~tr:Tag.initial ~seq:50);
        Engine.run rig.engine;
        (* then the (late) registration *)
        send_at rig ~at:100.0 ~dst:s0
          (read_value ~rid:13 ~reader:rig.driver ~tr:Tag.initial);
        Engine.run rig.engine;
        List.iter
          (fun c ->
            Alcotest.(check (list int))
              (Printf.sprintf "server %d has no registration" c)
              []
              (Soda.Server.registered_reads (server rig c)))
          (List.init 5 Fun.id);
        Alcotest.(check int) "and no relays were sent" 0
          (List.length
             (received rig (fun (_, m) ->
                  match m with Soda.Messages.Relay _ -> true | _ -> false))));
    Alcotest.test_case
      "READ-DISPERSE from k distinct servers unregisters; duplicates do not \
       count"
      `Quick (fun () ->
        let rig = make_rig () in
        (* k = n - f = 4; register without triggering the server's own
           relay by asking for a future tag *)
        let future = Tag.make ~z:9 ~w:999 in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (read_value ~rid:14 ~reader:rig.driver ~tr:future);
        Engine.run rig.engine;
        Alcotest.(check (list int)) "registered" [ 14 ]
          (Soda.Server.registered_reads (server rig 2));
        (* 3 distinct announcers + a duplicate: still below threshold *)
        List.iteri
          (fun i server_index ->
            send_at rig ~at:(100.0 +. float_of_int i) ~dst:(server_pid rig 2)
              (read_disperse ~origin:rig.driver ~seq:(60 + i) ~tag:future
                 ~server_index ~rid:14))
          [ 0; 1; 3; 3 ];
        Engine.run rig.engine;
        Alcotest.(check (list int)) "still registered after 3+dup" [ 14 ]
          (Soda.Server.registered_reads (server rig 2));
        (* the fourth distinct announcement tips it over *)
        send_at rig ~at:200.0 ~dst:(server_pid rig 2)
          (read_disperse ~origin:rig.driver ~seq:70 ~tag:future ~server_index:4
             ~rid:14);
        Engine.run rig.engine;
        Alcotest.(check (list int)) "unregistered" []
          (Soda.Server.registered_reads (server rig 2));
        Alcotest.(check int) "history cleared" 0
          (Soda.Server.history_entries (server rig 2)));
    Alcotest.test_case
      "one coalesced gossip with k distinct entries unregisters like k \
       standalone READ-DISPERSE messages"
      `Quick (fun () ->
        let rig = make_rig () in
        let future = Tag.make ~z:9 ~w:999 in
        let entry ~rid server_index =
          { Soda.Messages.tag = future; server_index; rid }
        in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (read_value ~rid:16 ~reader:rig.driver ~tr:future);
        Engine.run rig.engine;
        Alcotest.(check (list int)) "registered" [ 16 ]
          (Soda.Server.registered_reads (server rig 2));
        (* k = n - f = 4 distinct announcers in a single message *)
        send_at rig ~at:100.0 ~dst:(server_pid rig 2)
          (Soda.Messages.Gossip
             { entries = List.map (entry ~rid:16) [ 0; 1; 3; 4 ] });
        Engine.run rig.engine;
        Alcotest.(check (list int)) "unregistered by one coalesced message" []
          (Soda.Server.registered_reads (server rig 2));
        Alcotest.(check int) "history cleared" 0
          (Soda.Server.history_entries (server rig 2));
        (* 3 distinct + 1 duplicate stays below the threshold even when
           the entries ride an envelope; the envelope's payload is still
           processed *)
        send_at rig ~at:200.0 ~dst:(server_pid rig 0)
          (read_value ~rid:17 ~reader:rig.driver ~tr:future);
        Engine.run rig.engine;
        send_at rig ~at:300.0 ~dst:(server_pid rig 2)
          (Soda.Messages.Envelope
             { entries = List.map (entry ~rid:17) [ 0; 1; 3; 3 ];
               msg =
                 read_disperse ~origin:rig.driver ~seq:90 ~tag:future
                   ~server_index:0 ~rid:17
             });
        Engine.run rig.engine;
        (* envelope entries (3 distinct) + payload announcement for the
           same announcer 0 = still only 3 distinct: registered *)
        Alcotest.(check (list int)) "still registered after 3+dup" [ 17 ]
          (Soda.Server.registered_reads (server rig 2));
        (* the fourth distinct announcer inside a second envelope tips it *)
        send_at rig ~at:400.0 ~dst:(server_pid rig 2)
          (Soda.Messages.Gossip { entries = [ entry ~rid:17 4 ] });
        Engine.run rig.engine;
        Alcotest.(check (list int)) "then unregistered" []
          (Soda.Server.registered_reads (server rig 2)));
    Alcotest.test_case "mixed-tag announcements never reach the threshold"
      `Quick (fun () ->
        let rig = make_rig () in
        let future = Tag.make ~z:9 ~w:999 in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (read_value ~rid:15 ~reader:rig.driver ~tr:future);
        Engine.run rig.engine;
        (* 4 announcements but for two different tags: 2 + 2 < k = 4 *)
        List.iteri
          (fun i (z, server_index) ->
            send_at rig ~at:(100.0 +. float_of_int i) ~dst:(server_pid rig 2)
              (read_disperse ~origin:rig.driver ~seq:(80 + i)
                 ~tag:(Tag.make ~z ~w:999) ~server_index ~rid:15))
          [ (9, 0); (9, 1); (10, 2); (10, 3) ];
        Engine.run rig.engine;
        Alcotest.(check (list int)) "still registered" [ 15 ]
          (Soda.Server.registered_reads (server rig 2)))
  ]

(* ------------------------------------------------------------------ *)
(* Tombstones: a completed read leaves one bit per server, not an H row *)

(* A write then a read through the real clients, run to quiescence;
   returns the read's id. *)
let completed_read rig =
  Soda.Deployment.write rig.deployment ~writer:0 ~at:0.0 (Bytes.make 40 'w');
  Soda.Deployment.read rig.deployment ~reader:0 ~at:50.0 ();
  Engine.run rig.engine;
  match
    List.find_opt
      (fun (r : Protocol.History.record) ->
        r.Protocol.History.kind = Protocol.History.Read)
      (Protocol.History.records (Soda.Deployment.history rig.deployment))
  with
  | Some r ->
    Alcotest.(check bool) "read completed" true
      (Protocol.History.all_complete (Soda.Deployment.history rig.deployment));
    r.Protocol.History.op
  | None -> Alcotest.fail "no read in the history"

let check_no_history rig what =
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "%s: server %d holds no H entries" what c)
        0
        (Soda.Server.history_entries (server rig c)))
    (List.init 5 Fun.id)

let tombstone_tests =
  [ Alcotest.test_case "a completed read leaves no H entries at any server"
      `Quick (fun () ->
        let rig = make_rig () in
        ignore (completed_read rig : int);
        check_no_history rig "after the read");
    Alcotest.test_case
      "late READ-VALUE after completion neither registers nor relays" `Quick
      (fun () ->
        let rig = make_rig () in
        let rid = completed_read rig in
        let probe = Soda.Deployment.probe rig.deployment in
        let relays = Protocol.Probe.relays_of probe ~rid in
        (* a client retry that lost the race with its own READ-COMPLETE,
           sent to a member of D so it reaches every server *)
        send_at rig ~at:500.0 ~dst:(server_pid rig 0)
          (read_value ~rid ~reader:rig.driver ~tr:Tag.initial);
        Engine.run rig.engine;
        List.iter
          (fun c ->
            Alcotest.(check (list int))
              (Printf.sprintf "server %d has no registration" c)
              []
              (Soda.Server.registered_reads (server rig c)))
          (List.init 5 Fun.id);
        Alcotest.(check int) "no relay reached the retrying reader" 0
          (List.length
             (received rig (fun (_, m) ->
                  match m with
                  | Soda.Messages.Relay _ | Soda.Messages.Relay_batch _ -> true
                  | _ -> false)));
        Alcotest.(check int) "no server relayed again" relays
          (Protocol.Probe.relays_of probe ~rid);
        check_no_history rig "after the retry");
    Alcotest.test_case "late READ-DISPERSE after completion adds no H entry"
      `Quick (fun () ->
        let rig = make_rig () in
        let rid = completed_read rig in
        let stored = Soda.Server.stored_tag (server rig 0) in
        List.iteri
          (fun i server_index ->
            send_at rig ~at:(500.0 +. float_of_int i) ~dst:(server_pid rig 0)
              (read_disperse ~origin:rig.driver ~seq:(40 + i) ~tag:stored
                 ~server_index ~rid))
          [ 0; 1; 2 ];
        (* and the same announcement as coalesced gossip *)
        send_at rig ~at:510.0 ~dst:(server_pid rig 3)
          (Soda.Messages.Gossip
             { entries =
                 [ { Soda.Messages.tag = stored; server_index = 4; rid } ]
             });
        Engine.run rig.engine;
        check_no_history rig "after late announcements")
  ]

(* ------------------------------------------------------------------ *)
(* The delivered-mid set: per-origin marks plus holes, against a plain
   set of mids *)

module Mid_set = Soda.Mid_set
module Int_tbl = Protocol.Int_tbl

let mid_of ~origin ~seq = Soda.Messages.mid ~origin ~seq

type dedup_op = Add of int * int | Reset

let show_dedup_op = function
  | Add (o, s) -> Printf.sprintf "add %d.%d" o s
  | Reset -> "reset"

(* A few origins, one at the top of the 20-bit origin field; seqs
   mostly in a window that reorders and repeats, sometimes far ahead,
   so gaps open holes below and above the marks. *)
let dedup_op_gen =
  let open QCheck2.Gen in
  let origin = frequency [ (6, int_range 0 3); (1, pure 0xFFFFF) ] in
  let seq = frequency [ (8, int_range 0 40); (1, int_range 0 400) ] in
  frequency [ (30, map2 (fun o s -> Add (o, s)) origin seq); (1, pure Reset) ]

let dedup_agrees ops =
  let t = Mid_set.create () and reference = Int_tbl.Set.create 0 in
  let step = function
    | Add (origin, seq) ->
      let mid = mid_of ~origin ~seq in
      Mid_set.add t mid = Int_tbl.Set.add reference (mid :> int)
    | Reset ->
      Mid_set.reset t;
      Int_tbl.Set.reset reference;
      true
  in
  let members_agree () =
    List.for_all
      (fun origin ->
        List.for_all
          (fun seq ->
            let mid = mid_of ~origin ~seq in
            Mid_set.mem t mid = Int_tbl.Set.mem reference (mid :> int))
          (List.init 420 Fun.id))
      [ 0; 1; 2; 3; 4; 0xFFFFF ]
  in
  List.for_all
    (fun op ->
      step op && Mid_set.cardinal t = Int_tbl.Set.length reference)
    ops
  && members_agree ()

let dedup_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"model: marks and holes = a set of mids"
         ~print:(fun ops -> String.concat "; " (List.map show_dedup_op ops))
         QCheck2.Gen.(list_size (int_range 1 300) dedup_op_gen)
         dedup_agrees);
    Alcotest.test_case "reordered copies leave no hole behind" `Quick
      (fun () ->
        (* two origins, each dispersal overtaking up to 15 earlier ones:
           the holes never outnumber the copies in flight *)
        let t = Mid_set.create () in
        let worst = ref 0 in
        for block = 0 to 63 do
          for i = 15 downto 0 do
            List.iter
              (fun origin ->
                ignore
                  (Mid_set.add t (mid_of ~origin ~seq:((16 * block) + i))
                    : bool))
              [ 3; 9 ];
            worst := max !worst (Mid_set.holes t)
          done
        done;
        Alcotest.(check int) "every mid" 2048 (Mid_set.cardinal t);
        Alcotest.(check int) "no hole left" 0 (Mid_set.holes t);
        Alcotest.(check bool) "holes bounded by the reordering window" true
          (!worst <= 30));
    Alcotest.test_case "a crashed origin's lost dispersal is a permanent hole"
      `Quick (fun () ->
        (* origin 7 had dispersals 2 and 3 in flight when it crashed; 2
           reached no server, so no copy of it ever comes, while 3 is
           delivered everywhere *)
        let t = Mid_set.create () in
        List.iter
          (fun seq -> ignore (Mid_set.add t (mid_of ~origin:7 ~seq) : bool))
          [ 0; 1; 3 ];
        for seq = 0 to 99 do
          ignore (Mid_set.add t (mid_of ~origin:2 ~seq) : bool)
        done;
        Alcotest.(check int) "one hole" 1 (Mid_set.holes t);
        Alcotest.(check bool) "the hole is not a member" false
          (Mid_set.mem t (mid_of ~origin:7 ~seq:2));
        Alcotest.(check bool) "duplicates of 3 stay duplicates" false
          (Mid_set.add t (mid_of ~origin:7 ~seq:3));
        Alcotest.(check int) "103 members" 103 (Mid_set.cardinal t));
    Alcotest.test_case "a repaired server delivers a late pre-repair copy again"
      `Quick (fun () ->
        (* [begin_repair] wipes the set: a copy of a dispersal delivered
           before the crash is new to the restored server, exactly as with
           a plain set of mids, and still a duplicate everywhere else *)
        let rig = make_rig () in
        let tag = Tag.make ~z:1 ~w:rig.driver in
        let value = Bytes.make 30 'V' in
        let fragments = Mds.encode (code rig) value in
        let coded c =
          Soda.Messages.Md_coded
            { mid = mid rig 0; op = 900; tag; fragment = fragments.(c) }
        in
        send_at rig ~at:0.0 ~dst:(server_pid rig 0)
          (md_full rig ~seq:0 ~tag ~value);
        Soda.Deployment.crash_server rig.deployment ~coordinate:4 ~at:10.0;
        ignore
          (Soda.Deployment.repair_server rig.deployment ~coordinate:4 ~at:20.0
            : int);
        send_at rig ~at:100.0 ~dst:(server_pid rig 4) (coded 4);
        send_at rig ~at:100.0 ~dst:(server_pid rig 3) (coded 3);
        Engine.run rig.engine;
        let acks_from c =
          List.length
            (received rig (fun (src, m) ->
                 src = server_pid rig c
                 && match m with Soda.Messages.Write_ack _ -> true | _ -> false))
        in
        Alcotest.(check int) "the repaired server acks twice" 2 (acks_from 4);
        Alcotest.(check int) "a live server acks once" 1 (acks_from 3))
  ]

let () =
  Alcotest.run "md-and-server"
    [ ("md-value", md_value_tests);
      ("server-fig5", server_tests);
      ("tombstone", tombstone_tests);
      ("dedup", dedup_tests)
    ]
