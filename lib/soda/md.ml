module Engine = Simnet.Engine
module Cost = Protocol.Cost

type ctx = Messages.t Engine.context

let fresh_mid ctx ~seq =
  let mid = Messages.mid ~origin:(Engine.self ctx) ~seq:!seq in
  incr seq;
  mid

(* Send [msg] to the first f+1 coordinates, one per [disperse_step] of
   simulated time, so a crash of this process can truncate the
   sequence. Every hop sends the same message, so one allocation (and
   one rescheduled closure) covers the whole dispersal. *)
let stepped_send_to_d ctx (config : Config.t) msg =
  let d = Config.d_size config in
  let step = config.disperse_step in
  (* full-value hops are the data traffic of a write; metas are free *)
  let[@lint.allow
       "M1: dispersal cost accounting reads the payload size — this is \
        bookkeeping on a message in flight, not a protocol handler"]
      (op, bytes) =
    match msg with
    | Messages.Md_full { op; _ } -> (op, Messages.data_bytes msg)
    | Messages.Md_coded _ | Messages.Md_meta _ | Messages.Write_get _
    | Messages.Write_get_reply _ | Messages.Write_ack _ | Messages.Read_get _
    | Messages.Read_get_reply _ | Messages.Relay _ | Messages.Repair_get _
    | Messages.Repair_reply _ | Messages.Gossip _ | Messages.Envelope _
    | Messages.Relay_batch _ | Messages.Heartbeat _ | Messages.Suspect_vote _
    | Messages.Keyed _ | Messages.Keyed_gossip _ | Messages.Keyed_envelope _
    | Messages.Keyed_batch _ ->
      (0, 0)
  in
  let i = ref 0 in
  let rec go () =
    let j = !i in
    if j < d then begin
      if bytes > 0 then Cost.comm config.cost ~op ~bytes;
      Config.send config ctx ~dst:config.servers.(j) msg;
      i := j + 1;
      if j + 1 < d then Engine.schedule_local ctx ~delay:step go
    end
  in
  go ()

(* The naive ablation: encode locally and send each server its coded
   element directly. Costs n/k instead of O(f^2), but nobody else holds
   the full value, so a sender crash strands a partial dispersal. *)
let direct_value_send ctx (config : Config.t) ~mid ~op ~tag ~value =
  let fragments = Erasure.Mds.encode config.code value in
  let n = Array.length config.servers in
  let step = config.disperse_step in
  let rec go i =
    if i < n then begin
      let msg = Messages.Md_coded { mid; op; tag; fragment = fragments.(i) } in
      Cost.comm config.cost ~op ~bytes:(Messages.data_bytes msg);
      Config.send config ctx ~dst:config.servers.(i) msg;
      if i + 1 < n then Engine.schedule_local ctx ~delay:step (fun () -> go (i + 1))
    end
  in
  go 0

let value_send ctx (config : Config.t) ~seq ~op ~tag ~value =
  let mid = fresh_mid ctx ~seq in
  match config.md_mode with
  | `Chained ->
    stepped_send_to_d ctx config (Messages.Md_full { mid; op; tag; value })
  | `Direct -> direct_value_send ctx config ~mid ~op ~tag ~value

let meta_send ctx config ~seq meta =
  let mid = fresh_mid ctx ~seq in
  stepped_send_to_d ctx config (Messages.Md_meta { mid; meta })
