module Engine = Simnet.Engine
module Tag = Protocol.Tag
module Params = Protocol.Params
module History = Protocol.History
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment
module Int_tbl = Protocol.Int_tbl

module TagMap = Map.Make (struct
  type t = Tag.t

  let compare = Tag.compare
end)

(* One candidate tag's relayed fragments, indexed by coordinate, and
   how many slots are filled *)
type fragments = { slots : Fragment.t option array; mutable count : int }

type phase =
  | Idle
  | Get of { rid : int; replies : Int_tbl.Set.t; mutable best : Tag.t }
  | Collect of {
      rid : int;
      tr : Tag.t;
      mutable acc : fragments TagMap.t  (* per candidate tag *)
    }

type t = {
  config : Config.t;
  mutable phase : phase;
  seq : int ref;
  mutable on_done : (bytes -> unit) option
}

let create config = { config; phase = Idle; seq = ref 0; on_done = None }
(* Re-issue the pending phase of a stalled read (armed only when
   [Config.client_retry] is set, i.e. over the reliable transport). The
   get phase re-polls the servers; the collect phase re-broadcasts
   READ-VALUE, which re-registers the read at servers whose crash-repair
   cycle wiped the registration — without that, every wiped server is
   one relay source lost forever and a long-lived read can permanently
   fall below the decode threshold. All re-sends are idempotent at the
   receivers: replies are folded through sets and max-tag updates, and
   duplicate registrations are [Int_tbl.Map.replace]. *)
let rec schedule_retry t ctx ~rid =
  match t.config.Config.client_retry with
  | None -> ()
  | Some interval ->
    Engine.schedule_local ctx ~delay:interval (fun () ->
        match t.phase with
        | Get g when g.rid = rid ->
          Array.iter
            (fun server ->
              Config.send t.config ctx ~dst:server (Messages.Read_get { rid }))
            t.config.Config.servers;
          schedule_retry t ctx ~rid
        | Collect c when c.rid = rid ->
          Md.meta_send ctx t.config ~seq:t.seq
            (Messages.Read_value { rid; reader = Engine.self ctx; tr = c.tr });
          schedule_retry t ctx ~rid
        | Idle | Get _ | Collect _ ->
          (* the read completed (or a newer one started): stop *)
          ())

let invoke t ctx ?on_done () =
  (match t.phase with
  | Idle -> ()
  | Get _ | Collect _ ->
    invalid_arg "Reader.invoke: operation already in flight (well-formedness)");
  let rid =
    History.invoke t.config.Config.history ~client:(Engine.self ctx)
      ~kind:History.Read ~at:(Engine.now_ctx ctx)
  in
  t.on_done <- on_done;
  t.phase <- Get { rid; replies = Int_tbl.Set.create 8; best = Tag.initial };
  Array.iter
    (fun server -> Config.send t.config ctx ~dst:server (Messages.Read_get { rid }))
    t.config.Config.servers;
  schedule_retry t ctx ~rid;
  rid

let complete t ctx ~rid ~tr ~tag ~value =
  let history = t.config.Config.history in
  History.set_tag history ~op:rid tag;
  History.set_value history ~op:rid value;
  Md.meta_send ctx t.config ~seq:t.seq
    (Messages.Read_complete { rid; reader = Engine.self ctx; tr });
  History.respond history ~op:rid ~at:(Engine.now_ctx ctx);
  t.phase <- Idle;
  match t.on_done with
  | Some callback ->
    t.on_done <- None;
    callback value
  | None -> ()

(* Try to decode tag [tag] from the accumulated fragments; on success the
   read completes. SODAerr note: decoding can only be attempted — and is
   only guaranteed — once [k + 2e] elements are present, and up to [e] of
   them may be corrupt; [Mds.Decode_failure] leaves the read waiting for
   further relays (more elements can only help the decoder). *)
let try_decode t ctx ~rid ~tr ~tag fragments =
  if fragments.count >= t.config.Config.decode_threshold then begin
    (* in coordinate order, so the decoder's input does not depend on
       the order the relays arrived in *)
    let frags =
      Array.fold_right
        (fun slot acc -> match slot with Some f -> f :: acc | None -> acc)
        fragments.slots []
    in
    match Mds.decode t.config.Config.code frags with
    | value -> complete t ctx ~rid ~tr ~tag ~value
    | exception Mds.Decode_failure _ -> ()
  end

(* Fold one relayed element into the collect phase. Re-checks the phase
   so a batch whose earlier element completed the read (decode success
   flips the phase to Idle) stops consuming the rest. *)
let add_relay t ctx ~rid ~tag ~fragment =
  match t.phase with
  | Collect c when c.rid = rid ->
    let fragments =
      match TagMap.find_opt tag c.acc with
      | Some fragments -> fragments
      | None ->
        let fragments =
          { slots = Array.make (Params.n t.config.Config.params) None;
            count = 0
          }
        in
        c.acc <- TagMap.add tag fragments c.acc;
        fragments
    in
    let i = Fragment.index fragment in
    if Option.is_none fragments.slots.(i) then
      fragments.count <- fragments.count + 1;
    fragments.slots.(i) <- Some fragment;
    try_decode t ctx ~rid ~tr:c.tr ~tag fragments
  | Idle | Get _ | Collect _ -> ()

let rec handler t ctx ~src msg =
  match (msg, t.phase) with
  | Messages.Read_get_reply { rid; tag }, Get g when g.rid = rid ->
    ignore (Int_tbl.Set.add g.replies src : bool);
    if Tag.( > ) tag g.best then g.best <- tag;
    if Int_tbl.Set.length g.replies >= Params.majority t.config.Config.params
    then begin
      let tr = g.best in
      t.phase <- Collect { rid; tr; acc = TagMap.empty };
      Md.meta_send ctx t.config ~seq:t.seq
        (Messages.Read_value { rid; reader = Engine.self ctx; tr })
    end
  | Messages.Relay { rid; tag; fragment }, Collect c when c.rid = rid ->
    add_relay t ctx ~rid ~tag ~fragment
  | Messages.Relay_batch { relays }, _ ->
    (* the window may have caught relays of an earlier read of this
       process too: each is handled, or dropped as stale, on its own *)
    List.iter (handler t ctx ~src) relays
  | ( ( Messages.Read_get_reply _ | Messages.Relay _
      | Messages.Write_get _ | Messages.Write_get_reply _ | Messages.Write_ack _
      | Messages.Read_get _ | Messages.Md_full _ | Messages.Md_coded _
      | Messages.Md_meta _ | Messages.Repair_get _ | Messages.Repair_reply _
      | Messages.Gossip _ | Messages.Envelope _ | Messages.Heartbeat _
      | Messages.Suspect_vote _ | Messages.Keyed _ | Messages.Keyed_gossip _
      | Messages.Keyed_envelope _ | Messages.Keyed_batch _ ),
      (Idle | Get _ | Collect _) ) ->
    (* stale relays for finished reads, or foreign traffic *)
    ()
