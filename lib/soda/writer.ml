module Engine = Simnet.Engine
module Tag = Protocol.Tag
module Params = Protocol.Params
module History = Protocol.History
module Mds = Erasure.Mds
module Int_tbl = Protocol.Int_tbl

type phase =
  | Idle
  | Get of {
      op : int;
      value : bytes;
      replies : Int_tbl.Set.t;  (* coordinates heard from *)
      mutable best : Tag.t
    }
  | Put of { op : int; acks : Int_tbl.Set.t }

type t = {
  config : Config.t;
  mutable phase : phase;
  seq : int ref;
  mutable on_done : (unit -> unit) option
}

let create config = { config; phase = Idle; seq = ref 0; on_done = None }
(* Re-poll the servers while the write is stuck in its get phase (armed
   only when [Config.client_retry] is set, i.e. over the reliable
   transport). The put phase needs no retry: the MD dispersal is
   retransmitted by the channel and every server acknowledges on
   delivery, so the k acks always arrive. Re-sent Write_gets are
   idempotent at both ends — servers answer statelessly and replies are
   folded through a coordinate set and a max-tag update. *)
let rec schedule_retry t ctx ~op =
  match t.config.Config.client_retry with
  | None -> ()
  | Some interval ->
    Engine.schedule_local ctx ~delay:interval (fun () ->
        match t.phase with
        | Get g when g.op = op ->
          Config.send_coordinates t.config ctx ~from:0
            (Messages.Write_get { op });
          schedule_retry t ctx ~op
        | Idle | Get _ | Put _ -> ())

let invoke t ctx ~value ?on_done () =
  (match t.phase with
  | Idle -> ()
  | Get _ | Put _ ->
    invalid_arg "Writer.invoke: operation already in flight (well-formedness)");
  let history = t.config.Config.history in
  let op =
    History.invoke history ~client:(Engine.self ctx) ~kind:History.Write
      ~at:(Engine.now_ctx ctx)
  in
  History.set_value history ~op value;
  t.on_done <- on_done;
  t.phase <-
    Get { op; value; replies = Int_tbl.Set.create 8; best = Tag.initial };
  Config.send_coordinates t.config ctx ~from:0 (Messages.Write_get { op });
  schedule_retry t ctx ~op;
  op

let handler t ctx ~src msg =
  match (msg, t.phase) with
  | Messages.Write_get_reply { op; tag }, Get g when g.op = op ->
    ignore (Int_tbl.Set.add g.replies src : bool);
    if Tag.( > ) tag g.best then g.best <- tag;
    if Int_tbl.Set.length g.replies >= Params.majority t.config.Config.params
    then begin
      let tw = Tag.next g.best ~w:(Engine.self ctx) in
      History.set_tag t.config.Config.history ~op tw;
      t.phase <- Put { op; acks = Int_tbl.Set.create 8 };
      Md.value_send ctx t.config ~seq:t.seq ~op ~tag:tw ~value:g.value
    end
  | Messages.Write_ack { op; tag = _ }, Put p when p.op = op ->
    ignore (Int_tbl.Set.add p.acks src : bool);
    if Int_tbl.Set.length p.acks >= Mds.k t.config.Config.code then begin
      History.respond t.config.Config.history ~op ~at:(Engine.now_ctx ctx);
      t.phase <- Idle;
      match t.on_done with
      | Some callback ->
        t.on_done <- None;
        callback ()
      | None -> ()
    end
  | ( ( Messages.Write_get_reply _ | Messages.Write_ack _
      | Messages.Write_get _ | Messages.Read_get _ | Messages.Read_get_reply _
      | Messages.Relay _ | Messages.Relay_batch _ | Messages.Md_full _
      | Messages.Md_coded _ | Messages.Md_meta _ | Messages.Repair_get _
      | Messages.Repair_reply _ | Messages.Gossip _ | Messages.Envelope _
      | Messages.Heartbeat _ | Messages.Suspect_vote _ | Messages.Keyed _
      | Messages.Keyed_gossip _ | Messages.Keyed_envelope _
      | Messages.Keyed_batch _ ),
      (Idle | Get _ | Put _) ) ->
    (* stale replies from earlier phases or foreign traffic *)
    ()
