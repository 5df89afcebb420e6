module Engine = Simnet.Engine
module Params = Protocol.Params
module History = Protocol.History
module Cost = Protocol.Cost
module Tag = Protocol.Tag

module Messages = struct
  type t =
    | Query_tag of { op : int } [@lint.msg "abd -> abd"]
    | Query_tag_reply of { op : int; tag : Tag.t } [@lint.msg "abd -> abd"]
    | Query_full of { rid : int } [@lint.msg "abd -> abd"]
    | Query_full_reply of { rid : int; tag : Tag.t; value : bytes } [@lint.msg "abd -> abd"]
    | Store of { op : int; tag : Tag.t; value : bytes } [@lint.msg "abd -> abd"]
    | Store_ack of { op : int; tag : Tag.t } [@lint.msg "abd -> abd"]
  [@@lint.protocol]

  let data_bytes = function
    | Query_tag _ | Query_tag_reply _ | Query_full _ | Store_ack _ -> 0
    | Query_full_reply { value; _ } | Store { value; _ } -> Bytes.length value
end

type config = {
  params : Params.t;
  servers : int array;
  cost : Cost.t;
  history : History.t;
  initial_value : bytes
}

(* ------------------------------------------------------------------ *)
(* Server *)

module Server = struct
  type t = {
    config : config;
    coordinate : int;
    mutable tag : Tag.t;
    mutable value : bytes
  }

  let create config ~coordinate =
    Cost.storage_set config.cost ~server:coordinate
      ~bytes:(Bytes.length config.initial_value);
    { config; coordinate; tag = Tag.initial; value = config.initial_value }

  let handler t ctx ~src msg =
    match msg with
    | Messages.Query_tag { op } ->
      Engine.send ctx ~dst:src (Messages.Query_tag_reply { op; tag = t.tag })
    | Messages.Query_full { rid } ->
      Cost.comm t.config.cost ~op:rid ~bytes:(Bytes.length t.value);
      Engine.send ctx ~dst:src
        (Messages.Query_full_reply { rid; tag = t.tag; value = t.value })
    | Messages.Store { op; tag; value } ->
      if Tag.( > ) tag t.tag then begin
        t.tag <- tag;
        t.value <- value;
        Cost.storage_set t.config.cost ~server:t.coordinate
          ~bytes:(Bytes.length value)
      end;
      Engine.send ctx ~dst:src (Messages.Store_ack { op; tag })
    | Messages.Query_tag_reply _ | Messages.Query_full_reply _
    | Messages.Store_ack _ ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Clients *)

module Writer = struct
  type phase =
    | Query of { op : int; value : bytes; mutable best : Tag.t }
    | Store of { op : int }

  let start config c ctx ~op value =
    Register.enter c (Query { op; value; best = Tag.initial });
    Register.broadcast ctx config.servers (Messages.Query_tag { op })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Query_tag_reply { op; tag }, Some (Query q) when q.op = op ->
      if Tag.( > ) tag q.best then q.best <- tag;
      if Register.tally c src >= Params.majority config.params then begin
        let tw = Tag.next q.best ~w:(Engine.self ctx) in
        History.set_tag config.history ~op tw;
        Register.enter c (Store { op });
        Array.iter
          (fun s ->
            Cost.comm config.cost ~op ~bytes:(Bytes.length q.value);
            Engine.send ctx ~dst:s
              (Messages.Store { op; tag = tw; value = q.value }))
          config.servers
      end
    | Messages.Store_ack { op; tag = _ }, Some (Store s) when s.op = op ->
      if Register.tally c src >= Params.majority config.params then
        Register.respond c ctx ~op ()
    | ( ( Messages.Query_tag _ | Messages.Query_tag_reply _
        | Messages.Query_full _ | Messages.Query_full_reply _
        | Messages.Store _ | Messages.Store_ack _ ),
        (None | Some (Query _ | Store _)) ) ->
      ()
end

module Reader = struct
  type phase =
    | Query of {
        rid : int;
        mutable best : Tag.t;
        mutable best_value : bytes;
        mutable all_agree : bool
      }
    | Write_back of { rid : int; value : bytes }

  let start config c ctx ~op:rid =
    Register.enter c
      (Query
         { rid;
           best = Tag.initial;
           best_value = config.initial_value;
           all_agree = true
         });
    Register.broadcast ctx config.servers (Messages.Query_full { rid })

  let handler config c ctx ~src msg =
    match (msg, Register.phase c) with
    | Messages.Query_full_reply { rid; tag; value }, Some (Query q)
      when q.rid = rid ->
      if Register.count c > 0 && not (Tag.equal tag q.best) then
        q.all_agree <- false;
      if Tag.( > ) tag q.best then begin
        q.best <- tag;
        q.best_value <- value
      end;
      if Register.tally c src >= Params.majority config.params then begin
        History.set_tag config.history ~op:rid q.best;
        History.set_value config.history ~op:rid q.best_value;
        if q.all_agree then
          (* Every majority member already holds the winning pair: the
             write-back is unnecessary and skipping it keeps the
             quiescent read cost at n, as Table I accounts it. *)
          Register.respond c ctx ~op:rid q.best_value
        else begin
          Register.enter c (Write_back { rid; value = q.best_value });
          Array.iter
            (fun s ->
              Cost.comm config.cost ~op:rid
                ~bytes:(Bytes.length q.best_value);
              Engine.send ctx ~dst:s
                (Messages.Store
                   { op = rid; tag = q.best; value = q.best_value }))
            config.servers
        end
      end
    | Messages.Store_ack { op; tag = _ }, Some (Write_back w) when w.rid = op ->
      if Register.tally c src >= Params.majority config.params then
        Register.respond c ctx ~op w.value
    | ( ( Messages.Query_tag _ | Messages.Query_tag_reply _
        | Messages.Query_full _ | Messages.Query_full_reply _
        | Messages.Store _ | Messages.Store_ack _ ),
        (None | Some (Query _ | Write_back _)) ) ->
      ()
end

(* ------------------------------------------------------------------ *)
(* Deployment *)

type t = (Messages.t, config, Writer.phase, Reader.phase) Register.t

let deploy ~engine ~params ?(initial_value = Bytes.empty) ?value_len
    ~num_writers ~num_readers () =
  let servers = Register.reserve engine ~name:"abd-server" (Params.n params) in
  let config =
    { params;
      servers;
      cost = Register.cost ~initial_value value_len;
      history = History.create ();
      initial_value
    }
  in
  Register.deploy ~engine ~name:"abd" ~config ~history:config.history ~servers
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
let initial_value t = (Register.config t).initial_value
