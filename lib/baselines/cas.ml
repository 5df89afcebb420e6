module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Tag = Protocol.Tag
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment

module Messages = struct
  type t =
    | Query of { op : int } [@lint.msg "cas -> cas"]
    | Query_reply of { op : int; tag : Tag.t } [@lint.msg "cas -> cas"]
    | Pre of { op : int; tag : Tag.t; fragment : Fragment.t } [@lint.msg "cas -> cas"]
    | Pre_ack of { op : int; tag : Tag.t } [@lint.msg "cas -> cas"]
    | Fin of { op : int; tag : Tag.t } [@lint.msg "cas -> cas"]
    | Fin_ack of { op : int; tag : Tag.t } [@lint.msg "cas -> cas"]
    | Read_fin of { rid : int; tag : Tag.t } [@lint.msg "cas -> cas"]
    | Read_fin_reply of { rid : int; tag : Tag.t; fragment : Fragment.t option } [@lint.msg "cas -> cas"]
  [@@lint.protocol]

  let data_bytes = function
    | Query _ | Query_reply _ | Pre_ack _ | Fin _ | Fin_ack _ | Read_fin _
    | Read_fin_reply { fragment = None; _ } ->
      0
    | Pre { fragment; _ } -> Fragment.size fragment
    | Read_fin_reply { fragment = Some fragment; _ } -> Fragment.size fragment
end

type config = {
  params : Params.t;
  code : Mds.t;
  gc_depth : int option;
  servers : int array;
  cost : Cost.t;
  probe : Probe.t;
  history : History.t;
  initial_value : bytes;
  mutable restarts : int
}

let quorum config = Params.cas_quorum config.params

(* ------------------------------------------------------------------ *)
(* Server *)

module Server = struct
  type label = Pre_label | Fin_label

  type entry = { mutable fragment : Fragment.t option; mutable label : label }

  module TagMap = Map.Make (struct
    type t = Tag.t

    let compare = Tag.compare
  end)

  type t = {
    config : config;
    coordinate : int;
    mutable store : entry TagMap.t;
    mutable gc_floor : Tag.t option
        (* tags at or below this have been garbage-collected: their coded
           elements must not be (re-)stored *)
  }

  let stored_bytes t =
    TagMap.fold
      (fun _ e acc ->
        match e.fragment with Some f -> acc + Fragment.size f | None -> acc)
      t.store 0

  let sync_storage t =
    Cost.storage_set t.config.cost ~server:t.coordinate ~bytes:(stored_bytes t)

  let create config ~coordinate =
    let fragments = Mds.encode config.code config.initial_value in
    let store =
      TagMap.singleton Tag.initial
        { fragment = Some fragments.(coordinate); label = Fin_label }
    in
    let t = { config; coordinate; store; gc_floor = None } in
    sync_storage t;
    t

  (* Strictly below: the cutoff tag itself is the newest retained
     version, so its element may still be stored if the pre-write trails
     the finalize. *)
  let below_floor t tag =
    match t.gc_floor with Some fl -> Tag.( < ) tag fl | None -> false

  (* CASGC: keep coded elements only for the newest (delta + 1) finalized
     tags; anything older loses its element (labels stay, so queries and
     quorum intersection reasoning still see the tag). *)
  let garbage_collect t ctx =
    match t.config.gc_depth with
    | None -> ()
    | Some delta ->
      let finalized =
        TagMap.fold
          (fun tag e acc ->
            match e.label with Fin_label -> tag :: acc | Pre_label -> acc)
          t.store []
        (* TagMap folds ascending, so [acc] ends up descending *)
      in
      (match List.nth_opt finalized delta with
      | None -> ()
      | Some cutoff ->
        t.gc_floor <-
          Some
            (match t.gc_floor with
            | Some fl -> Tag.max fl cutoff
            | None -> cutoff);
        TagMap.iter
          (fun tag e ->
            if Tag.( < ) tag cutoff && Option.is_some e.fragment then begin
              e.fragment <- None;
              Probe.emit t.config.probe
                (Probe.Gc
                   { server = t.coordinate; tag; time = Engine.now_ctx ctx })
            end)
          t.store;
        sync_storage t)

  let max_finalized t =
    TagMap.fold
      (fun tag e acc ->
        match e.label with
        | Fin_label -> Tag.max tag acc
        | Pre_label -> acc)
      t.store Tag.initial

  let find_or_insert t tag =
    match TagMap.find_opt tag t.store with
    | Some e -> e
    | None ->
      let e = { fragment = None; label = Pre_label } in
      t.store <- TagMap.add tag e t.store;
      e

  let handler t ctx ~src msg =
    match msg with
    | Messages.Query { op } ->
      Engine.send ctx ~dst:src
        (Messages.Query_reply { op; tag = max_finalized t })
    | Messages.Pre { op; tag; fragment } ->
      if not (below_floor t tag) then begin
        let e = find_or_insert t tag in
        if Option.is_none e.fragment then begin
          e.fragment <- Some fragment;
          sync_storage t
        end
      end;
      Engine.send ctx ~dst:src (Messages.Pre_ack { op; tag })
    | Messages.Fin { op; tag } ->
      let e = find_or_insert t tag in
      e.label <- Fin_label;
      garbage_collect t ctx;
      Engine.send ctx ~dst:src (Messages.Fin_ack { op; tag })
    | Messages.Read_fin { rid; tag } ->
      let e = find_or_insert t tag in
      e.label <- Fin_label;
      garbage_collect t ctx;
      let fragment = if below_floor t tag then None else e.fragment in
      (match fragment with
      | Some f -> Cost.comm t.config.cost ~op:rid ~bytes:(Fragment.size f)
      | None -> ());
      Engine.send ctx ~dst:src (Messages.Read_fin_reply { rid; tag; fragment })
    | Messages.Query_reply _ | Messages.Pre_ack _ | Messages.Fin_ack _
    | Messages.Read_fin_reply _ ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Writer *)

module Writer = struct
  type phase =
    | Idle
    | Query of {
        op : int;
        value : bytes;
        replies : (int, unit) Hashtbl.t;
        mutable best : Tag.t
      }
    | Pre of { op : int; tag : Tag.t; acks : (int, unit) Hashtbl.t }
    | Fin of { op : int; tag : Tag.t; acks : (int, unit) Hashtbl.t }

  type t = {
    config : config;
    mutable phase : phase;
    mutable on_done : (unit -> unit) option
  }

  let create config = { config; phase = Idle; on_done = None }

  let invoke t ctx ~value ?on_done () =
    (match t.phase with
    | Idle -> ()
    | Query _ | Pre _ | Fin _ -> invalid_arg "Cas.Writer.invoke: busy");
    let op =
      History.invoke t.config.history ~client:(Engine.self ctx)
        ~kind:History.Write ~at:(Engine.now_ctx ctx)
    in
    History.set_value t.config.history ~op value;
    t.on_done <- on_done;
    t.phase <-
      Query { op; value; replies = Hashtbl.create 8; best = Tag.initial };
    Array.iter
      (fun s -> Engine.send ctx ~dst:s (Messages.Query { op }))
      t.config.servers;
    op

  let handler t ctx ~src msg =
    match (msg, t.phase) with
    | Messages.Query_reply { op; tag }, Query q when q.op = op ->
      Hashtbl.replace q.replies src ();
      if Tag.( > ) tag q.best then q.best <- tag;
      if Hashtbl.length q.replies >= quorum t.config then begin
        let tw = Tag.next q.best ~w:(Engine.self ctx) in
        History.set_tag t.config.history ~op tw;
        let fragments = Mds.encode t.config.code q.value in
        t.phase <- Pre { op; tag = tw; acks = Hashtbl.create 8 };
        Array.iteri
          (fun i s ->
            Cost.comm t.config.cost ~op
              ~bytes:(Fragment.size fragments.(i));
            Engine.send ctx ~dst:s
              (Messages.Pre { op; tag = tw; fragment = fragments.(i) }))
          t.config.servers
      end
    | Messages.Pre_ack { op; tag }, Pre p when p.op = op && Tag.equal tag p.tag
      ->
      Hashtbl.replace p.acks src ();
      if Hashtbl.length p.acks >= quorum t.config then begin
        t.phase <- Fin { op; tag = p.tag; acks = Hashtbl.create 8 };
        Array.iter
          (fun s -> Engine.send ctx ~dst:s (Messages.Fin { op; tag = p.tag }))
          t.config.servers
      end
    | Messages.Fin_ack { op; tag }, Fin f when f.op = op && Tag.equal tag f.tag
      ->
      Hashtbl.replace f.acks src ();
      if Hashtbl.length f.acks >= quorum t.config then begin
        History.respond t.config.history ~op ~at:(Engine.now_ctx ctx);
        t.phase <- Idle;
        match t.on_done with
        | Some callback ->
          t.on_done <- None;
          callback ()
        | None -> ()
      end
    | ( ( Messages.Query _ | Messages.Query_reply _ | Messages.Pre _
        | Messages.Pre_ack _ | Messages.Fin _ | Messages.Fin_ack _
        | Messages.Read_fin _ | Messages.Read_fin_reply _ ),
        (Idle | Query _ | Pre _ | Fin _) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module Reader = struct
  type phase =
    | Idle
    | Query of { rid : int; replies : (int, unit) Hashtbl.t; mutable best : Tag.t }
    | Collect of {
        rid : int;
        tag : Tag.t;
        replies : (int, unit) Hashtbl.t;
        fragments : (int, Fragment.t) Hashtbl.t
      }

  type t = {
    config : config;
    mutable phase : phase;
    mutable on_done : (bytes -> unit) option
  }

  let create config = { config; phase = Idle; on_done = None }

  let start_query t ctx ~rid =
    t.phase <- Query { rid; replies = Hashtbl.create 8; best = Tag.initial };
    Array.iter
      (fun s -> Engine.send ctx ~dst:s (Messages.Query { op = rid }))
      t.config.servers

  let invoke t ctx ?on_done () =
    (match t.phase with
    | Idle -> ()
    | Query _ | Collect _ -> invalid_arg "Cas.Reader.invoke: busy");
    let rid =
      History.invoke t.config.history ~client:(Engine.self ctx)
        ~kind:History.Read ~at:(Engine.now_ctx ctx)
    in
    t.on_done <- on_done;
    start_query t ctx ~rid;
    rid

  let handler t ctx ~src msg =
    match (msg, t.phase) with
    | Messages.Query_reply { op; tag }, Query q when q.rid = op ->
      Hashtbl.replace q.replies src ();
      if Tag.( > ) tag q.best then q.best <- tag;
      if Hashtbl.length q.replies >= quorum t.config then begin
        t.phase <-
          Collect
            { rid = q.rid;
              tag = q.best;
              replies = Hashtbl.create 8;
              fragments = Hashtbl.create 8
            };
        Array.iter
          (fun s ->
            Engine.send ctx ~dst:s
              (Messages.Read_fin { rid = q.rid; tag = q.best }))
          t.config.servers
      end
    | Messages.Read_fin_reply { rid; tag; fragment }, Collect c
      when c.rid = rid && Tag.equal tag c.tag ->
      Hashtbl.replace c.replies src ();
      (match fragment with
      | Some f -> Hashtbl.replace c.fragments (Fragment.index f) f
      | None -> ());
      let k = Mds.k t.config.code in
      if
        Hashtbl.length c.replies >= quorum t.config
        && Hashtbl.length c.fragments >= k
      then begin
        let[@lint.allow
             "D3: materialized sorted by fragment index so the decoder \
              input order is schedule-independent"] frags =
          Hashtbl.fold (fun i f acc -> (i, f) :: acc) c.fragments []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        let value = Mds.decode t.config.code frags in
        History.set_tag t.config.history ~op:rid c.tag;
        History.set_value t.config.history ~op:rid value;
        History.respond t.config.history ~op:rid ~at:(Engine.now_ctx ctx);
        t.phase <- Idle;
        match t.on_done with
        | Some callback ->
          t.on_done <- None;
          callback value
        | None -> ()
      end
      else if
        Hashtbl.length c.replies >= Params.n t.config.params
        && Hashtbl.length c.fragments < k
      then begin
        (* Garbage collection outran this read (possible only beyond the
           δ concurrency bound): restart it, per the CASGC liveness
           escape hatch. *)
        t.config.restarts <- t.config.restarts + 1;
        start_query t ctx ~rid
      end
    | ( ( Messages.Query _ | Messages.Query_reply _ | Messages.Pre _
        | Messages.Pre_ack _ | Messages.Fin _ | Messages.Fin_ack _
        | Messages.Read_fin _ | Messages.Read_fin_reply _ ),
        (Idle | Query _ | Collect _) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Deployment *)

type t = {
  engine : Messages.t Engine.t;
  config : config;
  writers : Writer.t array;
  writer_pids : int array;
  readers : Reader.t array;
  reader_pids : int array
}

let deploy ~engine ~params ?gc_depth ?(initial_value = Bytes.empty) ?value_len
    ~num_writers ~num_readers () =
  (match gc_depth with
  | Some d when d < 0 -> invalid_arg "Cas.deploy: negative gc_depth"
  | Some _ | None -> ());
  let n = Params.n params in
  let k = Params.k_cas params in
  let value_len =
    match value_len with
    | Some l -> l
    | None ->
      let l = Bytes.length initial_value in
      if l > 0 then l else 1024
  in
  let server_pids =
    Array.init n (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "cas-server%d" i))
  in
  let config =
    { params;
      code = Mds.rs_bch ~n ~k;
      gc_depth;
      servers = server_pids;
      cost = Cost.create ~value_len;
      probe = Probe.create ();
      history = History.create ();
      initial_value;
      restarts = 0
    }
  in
  Array.iteri
    (fun i pid ->
      Engine.set_handler engine pid
        (Server.handler (Server.create config ~coordinate:i)))
    server_pids;
  let writer_pids =
    Array.init num_writers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "cas-writer%d" i))
  in
  let writers = Array.init num_writers (fun _ -> Writer.create config) in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (Writer.handler writers.(i)))
    writer_pids;
  let reader_pids =
    Array.init num_readers (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "cas-reader%d" i))
  in
  let readers = Array.init num_readers (fun _ -> Reader.create config) in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (Reader.handler readers.(i)))
    reader_pids;
  { engine; config; writers; writer_pids; readers; reader_pids }

let write t ~writer ~at ?on_done value =
  Engine.inject t.engine ~at t.writer_pids.(writer) (fun ctx ->
      ignore (Writer.invoke t.writers.(writer) ctx ~value ?on_done ()))

let read t ~reader ~at ?on_done () =
  Engine.inject t.engine ~at t.reader_pids.(reader) (fun ctx ->
      ignore (Reader.invoke t.readers.(reader) ctx ?on_done ()))

let crash_server t ~coordinate ~at =
  Engine.crash_at t.engine t.config.servers.(coordinate) at

let history t = t.config.history
let cost t = t.config.cost
let probe t = t.config.probe
let initial_value t = t.config.initial_value
let read_restarts t = t.config.restarts
