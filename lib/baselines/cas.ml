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
    | Query of { op : int; value : bytes; mutable best : Tag.t }
    | Pre of { op : int; tag : Tag.t }
    | Fin of { op : int; tag : Tag.t }

  let start config c ctx ~op value =
    Register.enter c (Query { op; value; best = Tag.initial });
    Register.broadcast ctx config.servers (Messages.Query { op })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Query_reply { op; tag }, Some (Query q) when q.op = op ->
      if Tag.( > ) tag q.best then q.best <- tag;
      if Register.tally c src >= quorum config then begin
        let tw = Tag.next q.best ~w:(Engine.self ctx) in
        History.set_tag config.history ~op tw;
        let fragments = Mds.encode config.code q.value in
        Register.enter c (Pre { op; tag = tw });
        Array.iteri
          (fun i s ->
            Cost.comm config.cost ~op ~bytes:(Fragment.size fragments.(i));
            Engine.send ctx ~dst:s
              (Messages.Pre { op; tag = tw; fragment = fragments.(i) }))
          config.servers
      end
    | Messages.Pre_ack { op; tag }, Some (Pre p)
      when p.op = op && Tag.equal tag p.tag ->
      if Register.tally c src >= quorum config then begin
        Register.enter c (Fin { op; tag = p.tag });
        Register.broadcast ctx config.servers (Messages.Fin { op; tag = p.tag })
      end
    | Messages.Fin_ack { op; tag }, Some (Fin f)
      when f.op = op && Tag.equal tag f.tag ->
      if Register.tally c src >= quorum config then
        Register.respond c ctx ~op ()
    | ( ( Messages.Query _ | Messages.Query_reply _ | Messages.Pre _
        | Messages.Pre_ack _ | Messages.Fin _ | Messages.Fin_ack _
        | Messages.Read_fin _ | Messages.Read_fin_reply _ ),
        (None | Some (Query _ | Pre _ | Fin _)) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module Reader = struct
  type phase =
    | Query of { rid : int; mutable best : Tag.t }
    | Collect of {
        rid : int;
        tag : Tag.t;
        fragments : (int, Fragment.t) Hashtbl.t
      }

  let start config c ctx ~op:rid =
    Register.enter c (Query { rid; best = Tag.initial });
    Register.broadcast ctx config.servers (Messages.Query { op = rid })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Query_reply { op; tag }, Some (Query q) when q.rid = op ->
      if Tag.( > ) tag q.best then q.best <- tag;
      if Register.tally c src >= quorum config then begin
        Register.enter c
          (Collect { rid = q.rid; tag = q.best; fragments = Hashtbl.create 8 });
        Register.broadcast ctx config.servers
          (Messages.Read_fin { rid = q.rid; tag = q.best })
      end
    | Messages.Read_fin_reply { rid; tag; fragment }, Some (Collect g)
      when g.rid = rid && Tag.equal tag g.tag ->
      let replies = Register.tally c src in
      (match fragment with
      | Some f -> Hashtbl.replace g.fragments (Fragment.index f) f
      | None -> ());
      let k = Mds.k config.code in
      if replies >= quorum config && Hashtbl.length g.fragments >= k then begin
        let[@lint.allow
             "D3: materialized sorted by fragment index so the decoder \
              input order is schedule-independent"] frags =
          Hashtbl.fold (fun i f acc -> (i, f) :: acc) g.fragments []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        let value = Mds.decode config.code frags in
        History.set_tag config.history ~op:rid g.tag;
        History.set_value config.history ~op:rid value;
        Register.respond c ctx ~op:rid value
      end
      else if
        replies >= Params.n config.params && Hashtbl.length g.fragments < k
      then begin
        (* Garbage collection outran this read (possible only beyond the
           δ concurrency bound): restart it, per the CASGC liveness
           escape hatch. *)
        config.restarts <- config.restarts + 1;
        start config c ctx ~op:rid
      end
    | ( ( Messages.Query _ | Messages.Query_reply _ | Messages.Pre _
        | Messages.Pre_ack _ | Messages.Fin _ | Messages.Fin_ack _
        | Messages.Read_fin _ | Messages.Read_fin_reply _ ),
        (None | Some (Query _ | Collect _)) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Deployment *)

type t = (Messages.t, config, Writer.phase, Reader.phase) Register.t

let deploy ~engine ~params ?gc_depth ?(initial_value = Bytes.empty) ?value_len
    ~num_writers ~num_readers () =
  (match gc_depth with
  | Some d when d < 0 -> invalid_arg "Cas.deploy: negative gc_depth"
  | Some _ | None -> ());
  let n = Params.n params in
  let servers = Register.reserve engine ~name:"cas-server" n in
  let config =
    { params;
      code = Mds.rs_bch ~n ~k:(Params.k_cas params);
      gc_depth;
      servers;
      cost = Register.cost ~initial_value value_len;
      probe = Probe.create ();
      history = History.create ();
      initial_value;
      restarts = 0
    }
  in
  Register.deploy ~engine ~name:"cas" ~config ~history:config.history ~servers
    ~server:(fun coordinate ->
      Server.handler (Server.create config ~coordinate))
    ~num_writers ~writer:(Writer.handler config)
    ~start_write:(Writer.start config) ~num_readers
    ~reader:(Reader.handler config) ~start_read:(Reader.start config)

let write = Register.write
let read = Register.read
let crash_server = Register.crash_server
let server_pid = Register.server_pid
let history = Register.history
let cost t = (Register.config t).cost
let probe t = (Register.config t).probe
let initial_value t = (Register.config t).initial_value
let read_restarts t = (Register.config t).restarts
