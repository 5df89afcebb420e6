module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Tag = Protocol.Tag

module Messages = struct
  type t =
    | Dir_query of { op : int } [@lint.msg "ldr -> ldr"]
    | Dir_query_reply of { op : int; tag : Tag.t; locations : int list } [@lint.msg "ldr -> ldr"]
    | Dir_update of { op : int; tag : Tag.t; locations : int list } [@lint.msg "ldr -> ldr"]
    | Dir_update_ack of { op : int; tag : Tag.t } [@lint.msg "ldr -> ldr"]
    | Store of { op : int; tag : Tag.t; value : bytes } [@lint.msg "ldr -> ldr"]
    | Store_ack of { op : int; tag : Tag.t } [@lint.msg "ldr -> ldr"]
    | Fetch of { rid : int; tag : Tag.t } [@lint.msg "ldr -> ldr"]
    | Fetch_reply of { rid : int; tag : Tag.t; value : bytes } [@lint.msg "ldr -> ldr"]
  [@@lint.protocol]

  let data_bytes = function
    | Dir_query _ | Dir_query_reply _ | Dir_update _ | Dir_update_ack _
    | Store_ack _ | Fetch _ ->
      0
    | Store { value; _ } | Fetch_reply { value; _ } -> Bytes.length value
end

type config = {
  f : int;
  directories : int array;  (* pids, 2f+1 of them *)
  replicas : int array;  (* pids, 2f+1 of them *)
  cost : Cost.t;
  history : History.t;
  initial_value : bytes
}

let dir_majority config = (Array.length config.directories / 2) + 1
let store_quorum config = config.f + 1

(* ------------------------------------------------------------------ *)
(* Directory server: (tag, locations) metadata, monotone in tag *)

module Directory = struct
  type t = {
    mutable tag : Tag.t;
    mutable locations : int list
  }

  let create config =
    { tag = Tag.initial;
      locations = Array.to_list config.replicas
    }

  let handler t ctx ~src msg =
    match msg with
    | Messages.Dir_query { op } ->
      Engine.send ctx ~dst:src
        (Messages.Dir_query_reply { op; tag = t.tag; locations = t.locations })
    | Messages.Dir_update { op; tag; locations } ->
      if Tag.( > ) tag t.tag then begin
        t.tag <- tag;
        t.locations <- locations
      end;
      Engine.send ctx ~dst:src (Messages.Dir_update_ack { op; tag })
    | Messages.Dir_query_reply _ | Messages.Dir_update_ack _
    | Messages.Store _ | Messages.Store_ack _ | Messages.Fetch _
    | Messages.Fetch_reply _ ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Replica server: the full latest value; tags are monotone, so a
   replica recorded as a location always holds a tag at least as new *)

module Replica = struct
  type t = {
    config : config;
    index : int;  (* replica coordinate, also the storage account *)
    mutable tag : Tag.t;
    mutable value : bytes
  }

  let create config ~index =
    Cost.storage_set config.cost ~server:index
      ~bytes:(Bytes.length config.initial_value);
    { config; index; tag = Tag.initial; value = config.initial_value }

  let handler t ctx ~src msg =
    match msg with
    | Messages.Store { op; tag; value } ->
      if Tag.( > ) tag t.tag then begin
        t.tag <- tag;
        t.value <- value;
        Cost.storage_set t.config.cost ~server:t.index
          ~bytes:(Bytes.length value)
      end;
      Engine.send ctx ~dst:src (Messages.Store_ack { op; tag })
    | Messages.Fetch { rid; tag = _ } ->
      (* monotonicity: if this replica is a recorded location of the
         requested tag, its current tag can only be newer *)
      Cost.comm t.config.cost ~op:rid ~bytes:(Bytes.length t.value);
      Engine.send ctx ~dst:src
        (Messages.Fetch_reply { rid; tag = t.tag; value = t.value })
    | Messages.Dir_query _ | Messages.Dir_query_reply _ | Messages.Dir_update _
    | Messages.Dir_update_ack _ | Messages.Store_ack _
    | Messages.Fetch_reply _ ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Writer: dir-query -> store at replicas -> dir-update *)

module Writer = struct
  type phase =
    | Query of { op : int; value : bytes; mutable best : Tag.t }
    | Store of { op : int; tag : Tag.t; mutable ackers : int list }
    | Update of { op : int; tag : Tag.t }

  let start config c ctx ~op value =
    Register.enter c (Query { op; value; best = Tag.initial });
    Register.broadcast ctx config.directories (Messages.Dir_query { op })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Dir_query_reply { op; tag; locations = _ }, Some (Query q)
      when q.op = op ->
      if Tag.( > ) tag q.best then q.best <- tag;
      if Register.tally c src >= dir_majority config then begin
        let tw = Tag.next q.best ~w:(Engine.self ctx) in
        History.set_tag config.history ~op tw;
        Register.enter c (Store { op; tag = tw; ackers = [] });
        Array.iter
          (fun r ->
            Cost.comm config.cost ~op ~bytes:(Bytes.length q.value);
            Engine.send ctx ~dst:r
              (Messages.Store { op; tag = tw; value = q.value }))
          config.replicas
      end
    | Messages.Store_ack { op; tag }, Some (Store s)
      when s.op = op && Tag.equal tag s.tag ->
      if Register.vote c src then begin
        s.ackers <- src :: s.ackers;
        if Register.count c >= store_quorum config then begin
          Register.enter c (Update { op; tag = s.tag });
          Register.broadcast ctx config.directories
            (Messages.Dir_update { op; tag = s.tag; locations = s.ackers })
        end
      end
    | Messages.Dir_update_ack { op; tag }, Some (Update u)
      when u.op = op && Tag.equal tag u.tag ->
      if Register.tally c src >= dir_majority config then
        Register.respond c ctx ~op ()
    | ( ( Messages.Dir_query _ | Messages.Dir_query_reply _
        | Messages.Dir_update _ | Messages.Dir_update_ack _ | Messages.Store _
        | Messages.Store_ack _ | Messages.Fetch _ | Messages.Fetch_reply _ ),
        (None | Some (Query _ | Store _ | Update _)) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Reader: dir-query -> fetch from locations -> dir write-back *)

module Reader = struct
  type phase =
    | Query of { rid : int; mutable best : Tag.t; mutable locations : int list }
    | Fetch of { rid : int; dir_tag : Tag.t; locations : int list }
    | Store_back of {
        rid : int;
        tag : Tag.t;
        value : bytes;
        mutable ackers : int list
      }
    | Write_back of { rid : int; tag : Tag.t; value : bytes }

  let start config c ctx ~op:rid =
    let locations = Array.to_list config.replicas in
    Register.enter c (Query { rid; best = Tag.initial; locations });
    Register.broadcast ctx config.directories (Messages.Dir_query { op = rid })

  (* final phase: record (tag, locations) at a majority of directories
     so later readers cannot miss this read's tag *)
  let start_dir_write_back config c ctx ~rid ~tag ~value ~locations =
    Register.enter c (Write_back { rid; tag; value });
    Register.broadcast ctx config.directories
      (Messages.Dir_update { op = rid; tag; locations })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Dir_query_reply { op; tag; locations }, Some (Query q)
      when q.rid = op ->
      if Tag.( > ) tag q.best then begin
        q.best <- tag;
        q.locations <- locations
      end;
      if Register.tally c src >= dir_majority config then begin
        Register.enter c
          (Fetch { rid = q.rid; dir_tag = q.best; locations = q.locations });
        (* at most f of the f+1 recorded locations can be crashed *)
        List.iter
          (fun r ->
            Engine.send ctx ~dst:r
              (Messages.Fetch { rid = q.rid; tag = q.best }))
          q.locations
      end
    | Messages.Fetch_reply { rid; tag; value }, Some (Fetch f) when f.rid = rid
      ->
      (* replica tags are monotone, so tag >= f.dir_tag; first reply
         wins *)
      History.set_tag config.history ~op:rid tag;
      History.set_value config.history ~op:rid value;
      if Tag.equal tag f.dir_tag then
        (* the directory's locations are still valid for this tag *)
        start_dir_write_back config c ctx ~rid ~tag ~value
          ~locations:f.locations
      else begin
        (* a newer value surfaced: install it at f+1 replicas first so
           the directory entry we leave behind has live locations *)
        Register.enter c (Store_back { rid; tag; value; ackers = [] });
        Array.iter
          (fun r ->
            Cost.comm config.cost ~op:rid ~bytes:(Bytes.length value);
            Engine.send ctx ~dst:r (Messages.Store { op = rid; tag; value }))
          config.replicas
      end
    | Messages.Store_ack { op; tag }, Some (Store_back sb)
      when sb.rid = op && Tag.equal tag sb.tag ->
      if Register.vote c src then begin
        sb.ackers <- src :: sb.ackers;
        if Register.count c >= store_quorum config then
          start_dir_write_back config c ctx ~rid:sb.rid ~tag:sb.tag
            ~value:sb.value ~locations:sb.ackers
      end
    | Messages.Dir_update_ack { op; tag }, Some (Write_back w)
      when w.rid = op && Tag.equal tag w.tag ->
      if Register.tally c src >= dir_majority config then
        Register.respond c ctx ~op w.value
    | ( ( Messages.Dir_query _ | Messages.Dir_query_reply _
        | Messages.Dir_update _ | Messages.Dir_update_ack _ | Messages.Store _
        | Messages.Store_ack _ | Messages.Fetch _ | Messages.Fetch_reply _ ),
        (None | Some (Query _ | Fetch _ | Store_back _ | Write_back _)) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Deployment *)

type t = (Messages.t, config, Writer.phase, Reader.phase) Register.t

let deploy ~engine ~params ?(initial_value = Bytes.empty) ?value_len
    ~num_writers ~num_readers () =
  let f = Params.f params in
  let group = (2 * f) + 1 in
  let directories = Register.reserve engine ~name:"ldr-dir" group in
  let replicas = Register.reserve engine ~name:"ldr-replica" group in
  let config =
    { f;
      directories;
      replicas;
      cost = Register.cost ~initial_value value_len;
      history = History.create ();
      initial_value
    }
  in
  Register.deploy ~engine ~name:"ldr" ~config ~history:config.history
    ~servers:(Array.append directories replicas)
    ~server:(fun i ->
      if i < group then Directory.handler (Directory.create config)
      else Replica.handler (Replica.create config ~index:(i - group)))
    ~num_writers ~writer:(Writer.handler config)
    ~start_write:(Writer.start config) ~num_readers
    ~reader:(Reader.handler config) ~start_read:(Reader.start config)

let write = Register.write
let read = Register.read
let crash_server = Register.crash_server
let server_pid = Register.server_pid

let history = Register.history
let cost t = (Register.config t).cost
let initial_value t = (Register.config t).initial_value
