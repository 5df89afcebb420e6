(* Bechamel microbenchmarks of the infrastructure: GF(2^8) arithmetic
   and Reed-Solomon encode/decode throughput, including the
   errors-and-erasures decoder SODAerr relies on. *)

open Bechamel
open Toolkit

let value_of_size len =
  Bytes.init len (fun i -> Char.chr ((i * 31) land 0xff))

let gf_tests =
  let a = ref 37 and b = ref 181 in
  Test.make_grouped ~name:"gf256"
    [ Test.make ~name:"mul" (Staged.stage (fun () -> Galois.Gf.mul !a !b));
      Test.make ~name:"inv" (Staged.stage (fun () -> Galois.Gf.inv !a));
      Test.make ~name:"mul_slow"
        (Staged.stage (fun () -> Galois.Gf.mul_slow !a !b))
    ]

(* Bytes processed per run of each named benchmark, for the MB/s column
   of the report; benchmarks that aren't byte sweeps are omitted.

   Convention: codec figures count bytes of USER data — the value the
   client reads or writes, i.e. the k data symbols of every stripe
   (k·len of fragment bytes), never the n·len total the codec touches
   across all fragments. That keeps MB/s comparable across [n,k]
   presets: a [12,8] and a [10,5] encode of the same value report the
   same numerator even though the second writes more parity. *)
let bytes_per_run : (string * int) list ref = ref []

let note_bytes name bytes = bytes_per_run := (name, bytes) :: !bytes_per_run

(* One codec benchmark group per [n,k] preset; MB/s counts user bytes
   (see [bytes_per_run]), so rows are comparable across groups. *)
let codec_tests_for ~n ~k =
  let group = Printf.sprintf "rs[%d,%d]" n k in
  let bch = Erasure.Mds.rs_bch ~n ~k in
  let user_bytes name len =
    note_bytes (Printf.sprintf "micro/%s/%s" group name) len
  in
  let make_encode name code len =
    let value = value_of_size len in
    user_bytes name len;
    Test.make ~name (Staged.stage (fun () -> Erasure.Mds.encode code value))
  in
  let make_decode name code len ~corrupt ~drop =
    let value = value_of_size len in
    user_bytes name len;
    let fragments = Array.to_list (Erasure.Mds.encode code value) in
    let fragments =
      List.filteri (fun i _ -> i >= drop) fragments
      |> List.mapi (fun i f ->
             if i < corrupt then Erasure.Fragment.corrupt f ~seed:7 else f)
    in
    Test.make ~name
      (Staged.stage (fun () -> Erasure.Mds.decode code fragments))
  in
  let drop = n - k in
  Test.make_grouped ~name:group
    [ make_encode "encode-bch-64KiB" bch 65536;
      make_decode
        (Printf.sprintf "decode-bch-64KiB-%derasures" drop)
        bch 65536 ~corrupt:0 ~drop;
      make_decode "decode-bch-64KiB-1error" bch 65536 ~corrupt:1 ~drop:0
    ]

let codec_tests = codec_tests_for ~n:12 ~k:8
let codec_tests_alt = codec_tests_for ~n:10 ~k:5

let event_queue_tests =
  (* the simulator's dominant data-structure operations, isolated from
     protocol work. [replace-top] is steady-state churn at a fixed heap
     depth: pop the minimum, push a replacement a pseudo-random offset
     later — one full sift per run. [push-pop-256] ramps a queue up and
     drains it, covering both sift directions and the inbox path. *)
  let lcg = ref 0x4F6CDD1D in
  let jitter () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int (!lcg land 0xFFFF) /. 65536.0
  in
  let depth = 256 in
  let churn_q : unit Simnet.Event_queue.t = Simnet.Event_queue.create () in
  let churn_t = ref 0.0 in
  for _ = 1 to depth do
    churn_t := !churn_t +. 1.0;
    Simnet.Event_queue.push_tagged churn_q ~time:(!churn_t +. jitter ()) ~tag:3
      ()
  done;
  let drain_q : unit Simnet.Event_queue.t = Simnet.Event_queue.create () in
  Test.make_grouped ~name:"event_queue"
    [ Test.make ~name:"replace-top-d256"
        (Staged.stage (fun () ->
             ignore (Simnet.Event_queue.next_tag churn_q : int);
             Simnet.Event_queue.pop_exn churn_q;
             churn_t := !churn_t +. 1.0;
             (Simnet.Event_queue.inbox churn_q).(0) <- !churn_t +. jitter ();
             Simnet.Event_queue.push_inbox churn_q ~tag:3 ()));
      Test.make ~name:"push-pop-256"
        (Staged.stage (fun () ->
             for i = 1 to depth do
               Simnet.Event_queue.push_tagged drain_q
                 ~time:(float_of_int i +. jitter ())
                 ~tag:3 ()
             done;
             while not (Simnet.Event_queue.is_empty drain_q) do
               Simnet.Event_queue.pop_exn drain_q
             done))
    ]

let engine_tests =
  (* the engine's send + deliver path with a no-op protocol: two
     processes ping-pong a single message, so every [step] dispatches
     one delivery and enqueues one send *)
  let make name delay =
    let engine = Simnet.Engine.create ~seed:1 ~delay () in
    let a = Simnet.Engine.reserve engine ~name:"a" in
    let b = Simnet.Engine.reserve engine ~name:"b" in
    Simnet.Engine.set_handler engine a (fun ctx ~src:_ () ->
        Simnet.Engine.send ctx ~dst:b ());
    Simnet.Engine.set_handler engine b (fun ctx ~src:_ () ->
        Simnet.Engine.send ctx ~dst:a ());
    Simnet.Engine.inject engine ~at:0.0 a (fun ctx ->
        Simnet.Engine.send ctx ~dst:b ());
    ignore (Simnet.Engine.step engine : bool);
    Test.make ~name
      (Staged.stage (fun () -> ignore (Simnet.Engine.step engine : bool)))
  in
  Test.make_grouped ~name:"engine"
    [ make "send+deliver-const" (Simnet.Delay.constant 1.0);
      make "send+deliver-exp"
        (Simnet.Delay.exponential ~mean:1.0 ~cap:10.0)
    ]

let simulation_tests =
  (* a whole SODA round-trip (write + read on a 7-server cluster) as one
     macro-ish sample, to put protocol overhead in perspective *)
  let run () =
    let params = Protocol.Params.make ~n:7 ~f:2 () in
    let engine =
      Simnet.Engine.create ~seed:3 ~delay:(Simnet.Delay.constant 1.0) ()
    in
    let d =
      Soda.Deployment.deploy ~engine ~params
        ~initial_value:(value_of_size 4096) ~num_writers:1 ~num_readers:1 ()
    in
    Soda.Deployment.write d ~writer:0 ~at:0.0 (value_of_size 4096);
    Soda.Deployment.read d ~reader:0 ~at:100.0 ();
    Simnet.Engine.run engine
  in
  Test.make_grouped ~name:"simulation"
    [ Test.make ~name:"soda-write+read-n7-4KiB" (Staged.stage run) ]

let all_tests =
  Test.make_grouped ~name:"micro"
    [ gf_tests;
      codec_tests;
      codec_tests_alt;
      event_queue_tests;
      engine_tests;
      simulation_tests
    ]

let run () =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] all_tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  print_newline ();
  print_endline "== Microbenchmarks (ns per run, OLS estimate) ==";
  let rows = ref [] in
  (Hashtbl.iter
   [@lint.allow
     "D3: rows are materialized here and sorted with a dedicated \
      comparator before printing"])
    (fun name ols ->
      let ns = match Analyze.OLS.estimates ols with
        | Some [ e ] -> Some e
        | Some _ | None -> None
      in
      let estimate =
        match ns with Some e -> Printf.sprintf "%.1f" e | None -> "-"
      in
      let mbps =
        match (ns, List.assoc_opt name !bytes_per_run) with
        | Some e, Some bytes when e > 0.0 ->
          Printf.sprintf "%.0f" (float_of_int bytes *. 1000.0 /. e)
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; estimate; mbps; r2 ] :: !rows)
    results;
  Harness.Report.table ~title:"micro"
    ~header:[ "benchmark"; "ns/run"; "MB/s"; "r^2" ]
    (List.sort (List.compare String.compare) !rows)
