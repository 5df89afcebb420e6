(* Tests for the protocol substrate: tags, params, histories, cost
   accounting, probes, and — most importantly — the two atomicity
   checkers, including a cross-validation of the tag-based checker
   against the exhaustive value-based search on random histories. *)

module Tag = Protocol.Tag
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Atomicity = Protocol.Atomicity
module Int_tbl = Protocol.Int_tbl

let qtest ?(count = 300) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let tag_gen =
  QCheck2.Gen.(
    pair (int_range 0 5) (int_range (-1) 5) >|= fun (z, w) -> { Tag.z; w })

(* ------------------------------------------------------------------ *)
(* Tags *)

let tag_tests =
  [ qtest "total order: exactly one of <, =, >"
      QCheck2.Gen.(pair tag_gen tag_gen)
      (fun (a, b) ->
        let lt = Tag.( < ) a b and eq = Tag.equal a b and gt = Tag.( > ) a b in
        List.length (List.filter Fun.id [ lt; eq; gt ]) = 1);
    qtest "compare transitive"
      QCheck2.Gen.(triple tag_gen tag_gen tag_gen)
      (fun (a, b, c) ->
        let le a b = not (Tag.( > ) a b) in
        if le a b && le b c then le a c else true);
    qtest "next is strictly larger" QCheck2.Gen.(pair tag_gen (int_range 0 9))
      (fun (t, w) -> Tag.( > ) (Tag.next t ~w) t);
    qtest "next tags of distinct writers differ"
      QCheck2.Gen.(triple tag_gen (int_range 0 4) (int_range 5 9))
      (fun (t, w1, w2) ->
        not (Tag.equal (Tag.next t ~w:w1) (Tag.next t ~w:w2)));
    qtest "max is an upper bound" QCheck2.Gen.(pair tag_gen tag_gen)
      (fun (a, b) ->
        let m = Tag.max a b in
        Tag.( >= ) m a && Tag.( >= ) m b && (Tag.equal m a || Tag.equal m b));
    Alcotest.test_case "initial is below every writer tag" `Quick (fun () ->
        Alcotest.(check bool) "below" true
          (Tag.( < ) Tag.initial (Tag.make ~z:0 ~w:0)));
    Alcotest.test_case "z ordering dominates writer id" `Quick (fun () ->
        Alcotest.(check bool) "dominates" true
          (Tag.( < ) (Tag.make ~z:1 ~w:99) (Tag.make ~z:2 ~w:0)))
  ]

(* ------------------------------------------------------------------ *)
(* Params *)

let params_tests =
  [ Alcotest.test_case "derived quantities" `Quick (fun () ->
        let p = Params.make ~n:10 ~f:3 ~e:1 () in
        Alcotest.(check int) "k_soda" 5 (Params.k_soda p);
        Alcotest.(check int) "k_cas" 4 (Params.k_cas p);
        Alcotest.(check int) "majority" 6 (Params.majority p);
        Alcotest.(check int) "cas quorum" 7 (Params.cas_quorum p);
        Alcotest.(check int) "fmax" 4 (Params.fmax ~n:10));
    Alcotest.test_case "fmax boundary accepted" `Quick (fun () ->
        let p = Params.make ~n:9 ~f:4 () in
        Alcotest.(check int) "k" 5 (Params.k_soda p));
    qtest ~count:100 "quorum intersection sizes"
      QCheck2.Gen.(
        int_range 3 60 >>= fun n ->
        int_range 0 (Params.fmax ~n) >|= fun f -> (n, f))
      (fun (n, f) ->
        let p = Params.make ~n ~f () in
        (* two majorities intersect; two CAS quorums intersect in >= k *)
        (2 * Params.majority p) - n >= 1
        && (2 * Params.cas_quorum p) - n >= Params.k_cas p);
    Alcotest.test_case "invalid params rejected" `Quick (fun () ->
        let invalid f =
          match f () with exception Invalid_argument _ -> true | _ -> false
        in
        Alcotest.(check bool) "f too large" true
          (invalid (fun () -> Params.make ~n:10 ~f:5 ()));
        Alcotest.(check bool) "e too large" true
          (invalid (fun () -> Params.make ~n:5 ~f:1 ~e:2 ()));
        Alcotest.(check bool) "no servers" true
          (invalid (fun () -> Params.make ~n:0 ~f:0 ())))
  ]

(* ------------------------------------------------------------------ *)
(* History *)

let history_tests =
  [ Alcotest.test_case "invoke / respond lifecycle" `Quick (fun () ->
        let h = History.create () in
        let op1 = History.invoke h ~client:7 ~kind:History.Write ~at:1.0 in
        let op2 = History.invoke h ~client:8 ~kind:History.Read ~at:2.0 in
        Alcotest.(check int) "dense ids" 1 op2;
        Alcotest.(check bool) "not complete" false (History.all_complete h);
        History.respond h ~op:op1 ~at:3.0;
        Alcotest.(check int) "one incomplete" 1
          (List.length
             (List.filter
                (fun r -> r.History.responded_at = None)
                (History.records h)));
        History.respond h ~op:op2 ~at:4.0;
        Alcotest.(check bool) "complete" true (History.all_complete h);
        Alcotest.(check int) "size" 2 (History.size h));
    Alcotest.test_case "double response rejected" `Quick (fun () ->
        let h = History.create () in
        let op = History.invoke h ~client:0 ~kind:History.Write ~at:0.0 in
        History.respond h ~op ~at:1.0;
        Alcotest.check_raises "double"
          (Invalid_argument "History.respond: op 0 twice") (fun () ->
            History.respond h ~op ~at:2.0));
    Alcotest.test_case "response before invocation rejected" `Quick (fun () ->
        let h = History.create () in
        let op = History.invoke h ~client:0 ~kind:History.Read ~at:5.0 in
        Alcotest.check_raises "early"
          (Invalid_argument "History.respond: response precedes invocation")
          (fun () -> History.respond h ~op ~at:4.0));
    Alcotest.test_case "records in invocation order" `Quick (fun () ->
        let h = History.create () in
        for i = 0 to 4 do
          ignore (History.invoke h ~client:i ~kind:History.Write ~at:(float_of_int i))
        done;
        Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4 ]
          (List.map (fun r -> r.History.op) (History.records h)))
  ]

(* ------------------------------------------------------------------ *)
(* Cost *)

let cost_tests =
  [ Alcotest.test_case "communication attribution" `Quick (fun () ->
        let c = Cost.create ~value_len:100 in
        Cost.comm c ~op:0 ~bytes:100;
        Cost.comm c ~op:0 ~bytes:50;
        Cost.comm c ~op:1 ~bytes:25;
        Alcotest.(check (float 1e-9)) "op0" 1.5 (Cost.comm_of_op c ~op:0);
        Alcotest.(check (float 1e-9)) "op1" 0.25 (Cost.comm_of_op c ~op:1);
        Alcotest.(check (float 1e-9)) "total" 1.75 (Cost.total_comm c);
        Alcotest.(check (float 1e-9))
          "unknown op" 0.0 (Cost.comm_of_op c ~op:9));
    Alcotest.test_case "storage high-water mark" `Quick (fun () ->
        let c = Cost.create ~value_len:100 in
        Cost.storage_set c ~server:0 ~bytes:100;
        Cost.storage_set c ~server:1 ~bytes:100;
        Alcotest.(check (float 1e-9)) "current" 2.0 (Cost.current_total_storage c);
        Cost.storage_set c ~server:0 ~bytes:300;
        Cost.storage_set c ~server:1 ~bytes:0;
        Alcotest.(check (float 1e-9)) "current after" 3.0
          (Cost.current_total_storage c);
        (* the max was when both were loaded: 100 + 300 = 400 *)
        Alcotest.(check (float 1e-9)) "max" 4.0 (Cost.max_total_storage c));
    Alcotest.test_case "storage_add deltas" `Quick (fun () ->
        (* storage_set replaces a server's figure: the total moves by
           the delta *)
        let c = Cost.create ~value_len:10 in
        Cost.storage_set c ~server:3 ~bytes:20;
        Cost.storage_set c ~server:3 ~bytes:15;
        Alcotest.(check int) "server" 15 (Cost.storage_of_server c ~server:3);
        Alcotest.(check (float 1e-9))
          "total" 1.5 (Cost.current_total_storage c);
        Alcotest.check_raises "negative size"
          (Invalid_argument "Cost.storage_set: negative size") (fun () ->
            Cost.storage_set c ~server:3 ~bytes:(-100)));
    qtest ~count:100 "total equals sum over ops"
      QCheck2.Gen.(list_size (int_range 0 50) (pair (int_range 0 5) (int_range 0 1000)))
      (fun charges ->
        let c = Cost.create ~value_len:64 in
        List.iter (fun (op, bytes) -> Cost.comm c ~op ~bytes) charges;
        let by_op =
          List.init 6 (fun op ->
              int_of_float (Float.round (Cost.comm_of_op c ~op *. 64.)))
          |> List.fold_left ( + ) 0
        in
        by_op = List.fold_left (fun acc (_, b) -> acc + b) 0 charges)
  ]

(* ------------------------------------------------------------------ *)
(* Probe *)

let recording () =
  let p = Probe.create () in
  Probe.record p;
  p

let probe_tests =
  [ Alcotest.test_case "registration window" `Quick (fun () ->
        let p = recording () in
        Probe.emit p (Probe.Registered { rid = 0; server = 0; time = 1.0 });
        Probe.emit p (Probe.Registered { rid = 0; server = 1; time = 2.0 });
        Probe.emit p (Probe.Unregistered { rid = 0; server = 0; time = 5.0 });
        Probe.emit p (Probe.Unregistered { rid = 0; server = 1; time = 7.0 });
        Alcotest.(check (option (pair (float 0.) (float 0.)))) "window"
          (Some (1.0, 7.0))
          (Probe.registration_window p ~rid:0);
        Alcotest.(check (option (pair (float 0.) (float 0.)))) "unknown rid"
          None
          (Probe.registration_window p ~rid:9));
    Alcotest.test_case "open window is infinite unless server crashed" `Quick
      (fun () ->
        let p = recording () in
        Probe.emit p (Probe.Registered { rid = 0; server = 0; time = 1.0 });
        Probe.emit p (Probe.Registered { rid = 0; server = 1; time = 2.0 });
        Probe.emit p (Probe.Unregistered { rid = 0; server = 0; time = 3.0 });
        (match Probe.registration_window p ~rid:0 with
        | Some (_, t2) -> Alcotest.(check bool) "infinite" true (t2 = infinity)
        | None -> Alcotest.fail "expected window");
        (match
           Probe.registration_window ~is_crashed:(fun s -> s = 1) p ~rid:0
         with
        | Some (t1, t2) ->
          Alcotest.(check (float 0.)) "t1" 1.0 t1;
          Alcotest.(check (float 0.)) "t2" 3.0 t2
        | None -> Alcotest.fail "expected window"));
    Alcotest.test_case "registrations_balanced" `Quick (fun () ->
        let p = recording () in
        Probe.emit p (Probe.Registered { rid = 0; server = 0; time = 1.0 });
        Probe.emit p (Probe.Registered { rid = 0; server = 1; time = 1.0 });
        Probe.emit p (Probe.Unregistered { rid = 0; server = 0; time = 2.0 });
        Alcotest.(check bool) "unbalanced" false
          (Probe.registrations_balanced p ~crashed:(fun _ -> false));
        Alcotest.(check bool) "balanced if crashed" true
          (Probe.registrations_balanced p ~crashed:(fun s -> s = 1)));
    Alcotest.test_case "relays_of counts" `Quick (fun () ->
        let p = recording () in
        let tag = Tag.make ~z:1 ~w:0 in
        Probe.emit p (Probe.Relayed { rid = 3; server = 0; tag; time = 1.0 });
        Probe.emit p (Probe.Relayed { rid = 3; server = 1; tag; time = 1.5 });
        Probe.emit p (Probe.Relayed { rid = 4; server = 0; tag; time = 2.0 });
        Alcotest.(check int) "rid 3" 2 (Probe.relays_of p ~rid:3);
        Alcotest.(check int) "rid 4" 1 (Probe.relays_of p ~rid:4));
    Alcotest.test_case "a probe nobody records keeps nothing" `Quick (fun () ->
        let p = Probe.create () in
        let words () = Obj.reachable_words (Obj.repr p) in
        let fresh = words () in
        let tag = Tag.make ~z:1 ~w:0 in
        for i = 1 to 1_000 do
          Probe.emit p
            (Probe.Relayed { rid = i; server = i mod 7; tag; time = float i })
        done;
        Alcotest.(check int) "reachable words" fresh (words ()));
    Alcotest.test_case "every reader raises before record" `Quick (fun () ->
        let p = Probe.create () in
        Probe.emit p (Probe.Registered { rid = 0; server = 0; time = 1.0 });
        let raises name f =
          match f () with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "%s read a probe that is not recording" name
        in
        raises "events" (fun () -> ignore (Probe.events p));
        raises "chronological" (fun () -> ignore (Probe.chronological p));
        raises "registration_window" (fun () ->
            ignore (Probe.registration_window p ~rid:0));
        raises "relays_of" (fun () -> ignore (Probe.relays_of p ~rid:0));
        raises "registrations_balanced" (fun () ->
            ignore (Probe.registrations_balanced p ~crashed:(fun _ -> false)));
        raises "heal_causality" (fun () -> ignore (Probe.heal_causality p)));
    Alcotest.test_case "only emits after record are kept" `Quick (fun () ->
        let p = Probe.create () in
        let at rid = Probe.Registered { rid; server = 0; time = float rid } in
        Probe.emit p (at 1);
        Probe.record p;
        Probe.emit p (at 2);
        (* a second record neither restarts nor clears the log *)
        Probe.record p;
        Probe.emit p (at 3);
        Alcotest.(check bool) "events 2 and 3, in order" true
          (Probe.events p = [ at 2; at 3 ]))
  ]

(* ------------------------------------------------------------------ *)
(* Atomicity checkers *)

(* build a history record directly *)
let mk_op ~op ~kind ~inv ~res ~tag ~value : History.record =
  { History.op;
    client = op;
    kind;
    invoked_at = inv;
    responded_at = res;
    tag;
    value = Option.map Bytes.of_string value
  }

let w_op op ~inv ~res ~z ~w ~value =
  mk_op ~op ~kind:History.Write ~inv ~res:(Some res)
    ~tag:(Some (Tag.make ~z ~w)) ~value:(Some value)

let r_op op ~inv ~res ~tag ~value =
  mk_op ~op ~kind:History.Read ~inv ~res:(Some res) ~tag:(Some tag)
    ~value:(Some value)

let checker_tests =
  [ Alcotest.test_case "accepts a clean sequential history" `Quick (fun () ->
        let records =
          [ w_op 0 ~inv:0. ~res:1. ~z:1 ~w:100 ~value:"a";
            r_op 1 ~inv:2. ~res:3. ~tag:(Tag.make ~z:1 ~w:100) ~value:"a";
            w_op 2 ~inv:4. ~res:5. ~z:2 ~w:100 ~value:"b";
            r_op 3 ~inv:6. ~res:7. ~tag:(Tag.make ~z:2 ~w:100) ~value:"b"
          ]
        in
        Alcotest.(check bool) "tagged ok" true
          (Atomicity.check_tagged records = Ok ());
        Alcotest.(check bool) "value ok" true
          (Atomicity.linearizable_by_value ~initial_value:Bytes.empty records));
    Alcotest.test_case "read of the initial value" `Quick (fun () ->
        let records =
          [ r_op 0 ~inv:0. ~res:1. ~tag:Tag.initial ~value:"init" ]
        in
        Alcotest.(check bool) "ok" true
          (Atomicity.check_tagged ~initial_value:(Bytes.of_string "init")
             records
          = Ok ());
        Alcotest.(check bool) "value checker ok" true
          (Atomicity.linearizable_by_value
             ~initial_value:(Bytes.of_string "init") records));
    Alcotest.test_case "rejects a stale read (new-old inversion)" `Quick
      (fun () ->
        (* write b completes, then a later read returns the older tag *)
        let records =
          [ w_op 0 ~inv:0. ~res:1. ~z:1 ~w:100 ~value:"a";
            w_op 1 ~inv:2. ~res:3. ~z:2 ~w:100 ~value:"b";
            r_op 2 ~inv:4. ~res:5. ~tag:(Tag.make ~z:1 ~w:100) ~value:"a"
          ]
        in
        Alcotest.(check bool) "tagged rejects" true
          (Result.is_error (Atomicity.check_tagged records));
        Alcotest.(check bool) "value rejects" false
          (Atomicity.linearizable_by_value ~initial_value:Bytes.empty records));
    Alcotest.test_case "rejects read ordered before its write" `Quick
      (fun () ->
        (* read completes before the write with its tag even starts *)
        let records =
          [ r_op 0 ~inv:0. ~res:1. ~tag:(Tag.make ~z:1 ~w:100) ~value:"a";
            w_op 1 ~inv:2. ~res:3. ~z:1 ~w:100 ~value:"a"
          ]
        in
        Alcotest.(check bool) "tagged rejects" true
          (Result.is_error (Atomicity.check_tagged records));
        Alcotest.(check bool) "value rejects" false
          (Atomicity.linearizable_by_value ~initial_value:Bytes.empty records));
    Alcotest.test_case "rejects value mismatch (P3)" `Quick (fun () ->
        let records =
          [ w_op 0 ~inv:0. ~res:1. ~z:1 ~w:100 ~value:"a";
            r_op 1 ~inv:2. ~res:3. ~tag:(Tag.make ~z:1 ~w:100) ~value:"WRONG"
          ]
        in
        Alcotest.(check bool) "tagged rejects" true
          (Result.is_error (Atomicity.check_tagged records)));
    Alcotest.test_case "rejects duplicate write tags (P2)" `Quick (fun () ->
        let records =
          [ w_op 0 ~inv:0. ~res:1. ~z:1 ~w:100 ~value:"a";
            w_op 1 ~inv:2. ~res:3. ~z:1 ~w:100 ~value:"b"
          ]
        in
        Alcotest.(check bool) "tagged rejects" true
          (Result.is_error (Atomicity.check_tagged records)));
    Alcotest.test_case "rejects tag that nobody wrote" `Quick (fun () ->
        let records =
          [ r_op 0 ~inv:0. ~res:1. ~tag:(Tag.make ~z:7 ~w:3) ~value:"x" ]
        in
        Alcotest.(check bool) "tagged rejects" true
          (Result.is_error (Atomicity.check_tagged records)));
    Alcotest.test_case "accepts concurrent reads around a write" `Quick
      (fun () ->
        (* two reads concurrent with a write may return old and new *)
        let records =
          [ w_op 0 ~inv:0. ~res:10. ~z:1 ~w:100 ~value:"a";
            r_op 1 ~inv:1. ~res:9. ~tag:Tag.initial ~value:"";
            r_op 2 ~inv:2. ~res:8. ~tag:(Tag.make ~z:1 ~w:100) ~value:"a"
          ]
        in
        Alcotest.(check bool) "tagged ok" true
          (Atomicity.check_tagged records = Ok ());
        Alcotest.(check bool) "value ok" true
          (Atomicity.linearizable_by_value ~initial_value:Bytes.empty records));
    Alcotest.test_case "read may return an incomplete write's tag" `Quick
      (fun () ->
        let pending_write =
          mk_op ~op:0 ~kind:History.Write ~inv:0. ~res:None
            ~tag:(Some (Tag.make ~z:1 ~w:100))
            ~value:(Some "a")
        in
        let records =
          [ pending_write;
            r_op 1 ~inv:1. ~res:2. ~tag:(Tag.make ~z:1 ~w:100) ~value:"a"
          ]
        in
        Alcotest.(check bool) "tagged ok" true
          (Atomicity.check_tagged records = Ok ()));
    Alcotest.test_case "incomplete op lacking a tag is ignored" `Quick
      (fun () ->
        let pending =
          mk_op ~op:0 ~kind:History.Write ~inv:0. ~res:None ~tag:None
            ~value:None
        in
        Alcotest.(check bool) "ok" true
          (Atomicity.check_tagged [ pending ] = Ok ()));
    (* Cross-validation: on random tag-consistent histories, the tagged
       checker and the exhaustive value checker agree that valid
       histories are valid; and mutated histories rejected by the tag
       checker are (when the mutation breaks semantics, not just tags)
       rejected by the search too. Here we validate agreement on
       well-formed histories generated by simulating a sequentially
       consistent register with random overlap. *)
    qtest ~count:200 "tag-valid random histories pass both checkers"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let rng = Simnet.Rng.create seed in
        (* build a random linearization first, then give ops random
           intervals consistent with that order *)
        let nops = 1 + Simnet.Rng.int rng 10 in
        let time = ref 0.0 in
        let last_write = ref None in
        let zc = ref 0 in
        let records =
          List.init nops (fun op ->
              let start = !time +. Simnet.Rng.float rng 1.0 in
              let finish = start +. Simnet.Rng.float rng 1.0 in
              time := finish;
              if Simnet.Rng.bool rng then begin
                incr zc;
                let tag = Tag.make ~z:!zc ~w:(100 + op) in
                let value = Printf.sprintf "v%d" op in
                last_write := Some (tag, value);
                w_op op ~inv:start ~res:finish ~z:tag.Tag.z ~w:tag.Tag.w ~value
              end
              else
                match !last_write with
                | None -> r_op op ~inv:start ~res:finish ~tag:Tag.initial ~value:""
                | Some (tag, value) -> r_op op ~inv:start ~res:finish ~tag ~value)
        in
        Atomicity.check_tagged records = Ok ()
        && Atomicity.linearizable_by_value ~initial_value:Bytes.empty records);
    (* Differential test of the O(m log m) P1 plane sweep against the
       original O(m^2) pairwise scan it replaced. Histories have fully
       random (overlapping) intervals; write tags are unique and read
       values match their tags, so the verdict is decided by P1 alone —
       roughly half the generated histories violate it. The two
       checkers must agree on the verdict (the culprit pair they report
       may legitimately differ). *)
    qtest ~count:500 "P1 sweep agrees with the quadratic oracle"
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Simnet.Rng.create seed in
        let nops = 1 + Simnet.Rng.int rng 14 in
        let is_write = Array.init nops (fun _ -> Simnet.Rng.bool rng) in
        let nw = Array.fold_left (fun a b -> if b then a + 1 else a) 0 is_write in
        let zc = ref 0 in
        let records =
          List.init nops (fun op ->
              let inv = Simnet.Rng.float rng 20.0 in
              let res = inv +. Simnet.Rng.float rng 4.0 in
              if is_write.(op) then begin
                incr zc;
                w_op op ~inv ~res ~z:!zc ~w:100
                  ~value:(Printf.sprintf "v%d" !zc)
              end
              else
                let z = Simnet.Rng.int rng (nw + 1) in
                if z = 0 then r_op op ~inv ~res ~tag:Tag.initial ~value:""
                else
                  r_op op ~inv ~res ~tag:(Tag.make ~z ~w:100)
                    ~value:(Printf.sprintf "v%d" z))
        in
        Result.is_ok (Atomicity.check_tagged records)
        = Result.is_ok (Atomicity.check_tagged_quadratic records))
  ]

(* ------------------------------------------------------------------ *)
(* Int_tbl: model-based against Stdlib Set/Map, and probe lengths *)

module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

(* Key families the simulator actually uses, plus two stress shapes.
   [key family i] is injective in [i >= 0]. *)
let key family i =
  match family with
  | `Mid -> ((i / 18) lsl 20) lor (i mod 18)  (* (seq lsl 20) lor origin *)
  | `Tag -> Tag.pack { Tag.z = i / 4; w = i mod 4 }
  | `Consecutive -> 1_000 + i
  | `High -> i lsl 40

let family_gen = QCheck2.Gen.oneofl [ `Mid; `Tag; `Consecutive; `High ]

let family_name = function
  | `Mid -> "mid"
  | `Tag -> "tag"
  | `Consecutive -> "consecutive"
  | `High -> "high-bits"

(* An op is (kind, key index, value); indices repeat so adds, replaces
   and removes also hit present keys. Capacity 0 (a lazy table) is drawn
   a third of the time. Removes are frequent enough that tables shrink
   back to empty and regrow, and with [`High] keys (whose home slots
   collide in small tables) they delete inside clusters that wrap
   around the end of the slot array. *)
let tbl_ops_gen =
  QCheck2.Gen.(
    triple family_gen
      (frequency [ (1, return 0); (2, int_range 1 8) ])
      (list_size (int_range 1 600)
         (triple
            (frequency
               [ (6, return `Add);
                 (3, return `Find);
                 (4, return `Remove);
                 (1, return `Find_neg);
                 (1, return `Remove_neg);
                 (1, return `Reset)
               ])
            (int_range 0 400) small_nat)))

(* The key an op touches: a family key, or for the [_neg] ops a negative
   one — half the time -1, the empty-slot marker itself. *)
let op_key family kind i =
  match kind with
  | `Find_neg | `Remove_neg -> if i mod 2 = 0 then -1 else -1 - i
  | `Add | `Find | `Remove | `Reset -> key family i

let print_tbl_ops (family, cap, ops) =
  Printf.sprintf "%s cap=%d %d ops" (family_name family) cap (List.length ops)

let set_contents t =
  let l = ref [] in
  Int_tbl.Set.iter (fun k -> l := k :: !l) t;
  List.sort compare !l

let map_contents t =
  List.sort compare (Int_tbl.Map.fold (fun k v acc -> (k, v) :: acc) t [])

(* [n] keys of [family], fed to a default-sized table. *)
let probe_of family n =
  let t = Int_tbl.Set.create 16 in
  for i = 0 to n - 1 do
    ignore (Int_tbl.Set.add t (key family i) : bool)
  done;
  (Int_tbl.Set.length t, Int_tbl.Set.max_probe t)

let int_tbl_tests =
  [ qtest ~count:200 "Set agrees with Stdlib Set across growth"
      ~print:print_tbl_ops tbl_ops_gen (fun (family, cap, ops) ->
        let t = Int_tbl.Set.create cap in
        let model = ref Iset.empty in
        List.for_all
          (fun (kind, i, _) ->
            let k = op_key family kind i in
            let ok =
              match kind with
              | `Add ->
                let fresh = not (Iset.mem k !model) in
                model := Iset.add k !model;
                Int_tbl.Set.add t k = fresh
              | `Find | `Find_neg -> Int_tbl.Set.mem t k = Iset.mem k !model
              | `Remove | `Remove_neg ->
                Int_tbl.Set.remove t k;
                model := Iset.remove k !model;
                true
              | `Reset ->
                Int_tbl.Set.reset t;
                model := Iset.empty;
                true
            in
            ok
            && Int_tbl.Set.length t = Iset.cardinal !model
            && Int_tbl.Set.mem t k = Iset.mem k !model
            && set_contents t = Iset.elements !model
            && Iset.for_all (Int_tbl.Set.mem t) !model)
          ops
        && set_contents t = Iset.elements !model);
    qtest ~count:200 "Map agrees with Stdlib Map across growth"
      ~print:print_tbl_ops tbl_ops_gen (fun (family, cap, ops) ->
        let t = Int_tbl.Map.create ~dummy:(-1) cap in
        let model = ref Imap.empty in
        List.for_all
          (fun (kind, i, v) ->
            let k = op_key family kind i in
            let ok =
              match kind with
              | `Add ->
                model := Imap.add k v !model;
                Int_tbl.Map.replace t k v;
                true
              | `Find | `Find_neg ->
                Int_tbl.Map.find_opt t k = Imap.find_opt k !model
                && Int_tbl.Map.find t k ~default:(-2)
                   = Option.value ~default:(-2) (Imap.find_opt k !model)
              | `Remove | `Remove_neg ->
                Int_tbl.Map.remove t k;
                model := Imap.remove k !model;
                true
              | `Reset ->
                Int_tbl.Map.reset t;
                model := Imap.empty;
                true
            in
            ok
            && Int_tbl.Map.fold (fun _ _ n -> n + 1) t 0 = Imap.cardinal !model
            && Int_tbl.Map.mem t k = Imap.mem k !model
            && map_contents t = Imap.bindings !model
            && Imap.for_all
                 (fun k v -> Int_tbl.Map.find_opt t k = Some v)
                 !model)
          ops
        && map_contents t = Imap.bindings !model);
    Alcotest.test_case "negative keys are absent" `Quick (fun () ->
        (* -1 marks an empty slot: a lookup must not mistake it for a
           stored key, nor a removal empty the table through it *)
        let s = Int_tbl.Set.create 0 in
        ignore (Int_tbl.Set.add s 5 : bool);
        List.iter
          (fun k ->
            Alcotest.(check bool) "Set.mem" false (Int_tbl.Set.mem s k);
            Int_tbl.Set.remove s k;
            Alcotest.(check (list int)) "Set.remove keeps 5" [ 5 ] (set_contents s))
          [ -1; -2; min_int ];
        let m = Int_tbl.Map.create ~dummy:(-7) 0 in
        Int_tbl.Map.replace m 5 50;
        List.iter
          (fun k ->
            Alcotest.(check bool) "Map.mem" false (Int_tbl.Map.mem m k);
            Alcotest.(check (option int)) "Map.find_opt" None
              (Int_tbl.Map.find_opt m k);
            Alcotest.(check int) "Map.find" 0 (Int_tbl.Map.find m k ~default:0);
            Int_tbl.Map.remove m k;
            Alcotest.(check (list (pair int int))) "Map.remove keeps 5"
              [ (5, 50) ] (map_contents m))
          [ -1; -2; min_int ]);
    Alcotest.test_case "mids and packed tags do not cluster" `Quick (fun () ->
        (* 8,192 mids from 18 origins and 8,192 tags from 4 writers: a
           hash of the key's low bits sends each origin or writer to one
           home slot, and linear probing then scans runs of thousands *)
        List.iter
          (fun family ->
            let size, worst = probe_of family 8192 in
            Alcotest.(check int) (family_name family ^ " size") 8192 size;
            if worst > 32 then
              Alcotest.failf "%s keys: longest probe %d > 32"
                (family_name family) worst)
          [ `Mid; `Tag ]);
    Alcotest.test_case "remove down to empty, then add again" `Quick
      (fun () ->
        (* both lazy and presized tables, over every key family: the
           table must come back empty (no slots left to probe) and then
           regrow from nothing *)
        List.iter
          (fun (family, cap) ->
            let name = Printf.sprintf "%s cap=%d" (family_name family) cap in
            let s = Int_tbl.Set.create cap in
            let m = Int_tbl.Map.create ~dummy:(-1) cap in
            for round = 1 to 3 do
              for i = 0 to 99 do
                ignore (Int_tbl.Set.add s (key family i) : bool);
                Int_tbl.Map.replace m (key family i) (round * i)
              done;
              (* remove in an order unrelated to insertion *)
              for j = 0 to 99 do
                let i = (j * 37) mod 100 in
                Int_tbl.Set.remove s (key family i);
                Int_tbl.Map.remove m (key family i);
                Alcotest.(check int) (name ^ " set size") (99 - j)
                  (Int_tbl.Set.length s);
                Alcotest.(check int) (name ^ " map size") (99 - j)
                  (Int_tbl.Map.fold (fun _ _ n -> n + 1) m 0);
                Alcotest.(check bool) (name ^ " gone") false
                  (Int_tbl.Set.mem s (key family i)
                  || Int_tbl.Map.mem m (key family i))
              done;
              Alcotest.(check (list int))
                (name ^ " set empty") [] (set_contents s);
              Alcotest.(check (list (pair int int))) (name ^ " map empty") []
                (map_contents m);
              Alcotest.(check int)
                (name ^ " no probe") 0 (Int_tbl.Set.max_probe s);
              Int_tbl.Set.remove s (key family 0);
              Int_tbl.Map.remove m (key family 0)
            done;
            Alcotest.(check bool) (name ^ " add after empty") true
              (Int_tbl.Set.add s (key family 5));
            Int_tbl.Map.replace m (key family 5) 55;
            Alcotest.(check (list int)) (name ^ " regrown set") [ key family 5 ]
              (set_contents s);
            Alcotest.(check (option int)) (name ^ " regrown map") (Some 55)
              (Int_tbl.Map.find_opt m (key family 5)))
          [ (`Mid, 0); (`Tag, 0); (`Consecutive, 16); (`High, 0); (`High, 64) ]);
    Alcotest.test_case "max_probe of empty and singleton tables" `Quick
      (fun () ->
        let t = Int_tbl.Set.create 4 in
        Alcotest.(check int) "empty" 0 (Int_tbl.Set.max_probe t);
        ignore (Int_tbl.Set.add t 7 : bool);
        Alcotest.(check int) "one key" 1 (Int_tbl.Set.max_probe t);
        let m = Int_tbl.Map.create ~dummy:0 4 in
        Int_tbl.Map.replace m 7 1;
        Alcotest.(check int) "map one key" 1 (Int_tbl.Map.max_probe m))
  ]

let () =
  Alcotest.run "protocol"
    [ ("tag", tag_tests);
      ("params", params_tests);
      ("history", history_tests);
      ("cost", cost_tests);
      ("probe", probe_tests);
      ("atomicity", checker_tests);
      ("int_tbl", int_tbl_tests)
    ]
