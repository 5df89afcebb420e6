module Tag = Protocol.Tag
module Fragment = Erasure.Fragment

(* Packed as an immediate so MD deduplication tables hash an int rather
   than a record: origin pid in the low 20 bits (the simulator's pid
   cap), per-origin sequence number above. *)
type mid = int

let mid ~origin ~seq = (seq lsl 20) lor origin
let mid_origin mid = mid land 0xFFFFF
let mid_seq mid = mid lsr 20

(* The MD-relayed metadata alphabet. Routes below name role source
   files in this directory; soda-lint's M-pass checks every declared
   handler binds the payload somewhere and every declared sender
   constructs the message (see DESIGN.md, "Static analysis v2"). *)
type meta =
  | Read_value of { rid : int; reader : int; tr : Tag.t }
      [@lint.msg "reader -> server"]
  | Read_complete of { rid : int; reader : int; tr : Tag.t }
      [@lint.msg "reader -> server"]
  | Read_disperse of { tag : Tag.t; server_index : int; rid : int }
      [@lint.msg "server -> server"]
[@@lint.protocol]

(* One deferred READ-DISPERSE announcement, accumulated in a plane's
   per-destination outbox instead of being broadcast standalone. *)
type gossip_entry = { tag : Tag.t; server_index : int; rid : int }

(* A gossip entry qualified by the key instance it belongs to — the
   cross-key analogue of [gossip_entry], accumulated in a shared-plane
   server's per-destination outbox across all keys it hosts. *)
type keyed_entry = { ke_key : int; ke_entry : gossip_entry }

(* The SODA wire alphabet with its declared routes ("sender ->
   handler", comma-separated for multi-route constructors). The M-pass
   cross-checks these against observed emissions (Texp_construct in a
   role file) and handlers (a match arm binding the payload); a
   wildcard [C _] arm is an explicit ignore, not a handler. *)
type t =
  | Write_get of { op : int } [@lint.msg "writer -> server"]
  | Write_get_reply of { op : int; tag : Tag.t }
      [@lint.msg "server -> writer"]
  | Write_ack of { op : int; tag : Tag.t } [@lint.msg "server -> writer"]
  | Read_get of { rid : int } [@lint.msg "reader -> server"]
  | Read_get_reply of { rid : int; tag : Tag.t }
      [@lint.msg "server -> reader"]
  | Relay of { rid : int; tag : Tag.t; fragment : Fragment.t }
      [@lint.msg "server -> reader"]
  | Md_full of { mid : mid; op : int; tag : Tag.t; value : bytes }
      [@lint.msg "md server -> server"]
      [@lint.allow
        "M3: the server leg forwards the incoming Md_full value down the \
         chain as-is (server.ml on_md_full) — a variable send the static \
         emission check cannot see"]
  | Md_coded of { mid : mid; op : int; tag : Tag.t; fragment : Fragment.t }
      [@lint.msg "md server -> server"]
  | Md_meta of { mid : mid; meta : meta } [@lint.msg "md -> server"]
  | Repair_get of { op : int } [@lint.msg "server -> server"]
  | Repair_reply of { op : int; tag : Tag.t; fragment : Fragment.t }
      [@lint.msg "server -> server"]
  | Gossip of { entries : gossip_entry list }
      [@lint.msg "deployment -> server"]
  | Envelope of { entries : gossip_entry list; msg : t }
      [@lint.msg "deployment -> server"] [@lint.envelope]
  | Relay_batch of { relays : t list } [@lint.msg "deployment -> reader"]
  | Heartbeat of { coordinate : int } [@lint.msg "server -> server"]
  | Suspect_vote of { target : int; voter : int }
      [@lint.msg "server -> server"]
  | Keyed of { key : int; msg : t }
      [@lint.msg "keyspace -> keyspace"] [@lint.envelope]
  | Keyed_gossip of { kentries : keyed_entry list }
      [@lint.msg "keyspace -> keyspace"]
  | Keyed_envelope of { kentries : keyed_entry list; key : int; msg : t }
      [@lint.msg "keyspace -> keyspace"] [@lint.envelope]
  | Keyed_batch of { kitems : (int * t) list }
      [@lint.msg "keyspace -> keyspace"]
[@@lint.protocol]

let rec data_bytes = function
  | Write_get _ | Write_get_reply _ | Write_ack _ | Read_get _
  | Read_get_reply _ | Md_meta _ | Repair_get _ | Gossip _ | Heartbeat _
  | Suspect_vote _ ->
    0
  | Relay { fragment; _ } | Md_coded { fragment; _ }
  | Repair_reply { fragment; _ } ->
    Fragment.size fragment
  | Md_full { value; _ } -> Bytes.length value
  | Envelope { msg; _ } -> data_bytes msg
  | Relay_batch { relays } ->
    List.fold_left (fun acc m -> acc + data_bytes m) 0 relays
  | Keyed { msg; _ } | Keyed_envelope { msg; _ } -> data_bytes msg
  | Keyed_gossip _ -> 0
  | Keyed_batch { kitems } ->
    List.fold_left (fun acc (_, m) -> acc + data_bytes m) 0 kitems

(* How many standalone messages one wire frame replaces: each
   piggybacked gossip entry and each batched item counts for the
   message it would have been on the unbatched plane. Feeds the
   engine's [payload_units] counter ([Engine.create ?weigh]). *)
let rec logical_units = function
  | Write_get _ | Write_get_reply _ | Write_ack _ | Read_get _
  | Read_get_reply _ | Relay _ | Md_full _ | Md_coded _ | Md_meta _
  | Repair_get _ | Repair_reply _ | Heartbeat _ | Suspect_vote _ ->
    1
  | Gossip { entries } -> List.length entries
  | Envelope { entries; msg } -> List.length entries + logical_units msg
  | Relay_batch { relays } ->
    List.fold_left (fun acc m -> acc + logical_units m) 0 relays
  | Keyed { msg; _ } -> logical_units msg
  | Keyed_gossip { kentries } -> List.length kentries
  | Keyed_envelope { kentries; msg; _ } ->
    List.length kentries + logical_units msg
  | Keyed_batch { kitems } ->
    List.fold_left (fun acc (_, m) -> acc + logical_units m) 0 kitems

let pp_meta ppf = function
  | Read_value { rid; reader; tr } ->
    Format.fprintf ppf "READ-VALUE(rid=%d r=%d tr=%a)" rid reader Tag.pp tr
  | Read_complete { rid; reader; tr } ->
    Format.fprintf ppf "READ-COMPLETE(rid=%d r=%d tr=%a)" rid reader Tag.pp tr
  | Read_disperse { tag; server_index; rid } ->
    Format.fprintf ppf "READ-DISPERSE(t=%a s=%d rid=%d)" Tag.pp tag
      server_index rid

(* Entry counts plus tag/rid ranges — enough to diff two replay traces
   by eye without dumping every element of a long envelope. *)
let pp_entries ppf entries =
  match entries with
  | [] -> Format.fprintf ppf "#0"
  | { tag; server_index; rid } :: rest ->
    let lo_t, hi_t, lo_r, hi_r, servers =
      List.fold_left
        (fun (lo_t, hi_t, lo_r, hi_r, servers) e ->
          ( (if Tag.( > ) lo_t e.tag then e.tag else lo_t),
            (if Tag.( > ) e.tag hi_t then e.tag else hi_t),
            min lo_r e.rid,
            max hi_r e.rid,
            servers + 1 ))
        (tag, tag, rid, rid, 1)
        rest
    in
    ignore (server_index : int);
    if Tag.compare lo_t hi_t = 0 && lo_r = hi_r then
      Format.fprintf ppf "#%d t=%a rid=%d" servers Tag.pp lo_t lo_r
    else
      Format.fprintf ppf "#%d t=%a..%a rid=%d..%d" servers Tag.pp lo_t Tag.pp
        hi_t lo_r hi_r

(* Cross-key envelopes: entry count and distinct-key count — per-key
   detail is recoverable from the per-key histories, not the trace. *)
let pp_kentries ppf = function
  | [] -> Format.fprintf ppf "#0"
  | kentries ->
    let keys =
      List.sort_uniq Int.compare (List.map (fun ke -> ke.ke_key) kentries)
    in
    Format.fprintf ppf "#%d keys=%d" (List.length kentries) (List.length keys)

let rec pp ppf = function
  | Write_get { op } -> Format.fprintf ppf "WRITE-GET(op=%d)" op
  | Write_get_reply { op; tag } ->
    Format.fprintf ppf "WRITE-GET-REPLY(op=%d t=%a)" op Tag.pp tag
  | Write_ack { op; tag } ->
    Format.fprintf ppf "WRITE-ACK(op=%d t=%a)" op Tag.pp tag
  | Read_get { rid } -> Format.fprintf ppf "READ-GET(rid=%d)" rid
  | Read_get_reply { rid; tag } ->
    Format.fprintf ppf "READ-GET-REPLY(rid=%d t=%a)" rid Tag.pp tag
  | Relay { rid; tag; fragment } ->
    Format.fprintf ppf "RELAY(rid=%d t=%a %a)" rid Tag.pp tag Fragment.pp
      fragment
  | Md_full { mid; op; tag; value } ->
    Format.fprintf ppf "MD-FULL(mid=%d.%d op=%d t=%a |v|=%d)" (mid_origin mid)
      (mid_seq mid) op Tag.pp tag (Bytes.length value)
  | Md_coded { mid; op; tag; fragment } ->
    Format.fprintf ppf "MD-CODED(mid=%d.%d op=%d t=%a %a)" (mid_origin mid)
      (mid_seq mid) op Tag.pp tag Fragment.pp fragment
  | Md_meta { mid; meta } ->
    Format.fprintf ppf "MD-META(mid=%d.%d %a)" (mid_origin mid) (mid_seq mid)
      pp_meta meta
  | Repair_get { op } -> Format.fprintf ppf "REPAIR-GET(op=%d)" op
  | Repair_reply { op; tag; fragment } ->
    Format.fprintf ppf "REPAIR-REPLY(op=%d t=%a %a)" op Tag.pp tag Fragment.pp
      fragment
  | Gossip { entries } -> Format.fprintf ppf "GOSSIP(%a)" pp_entries entries
  | Envelope { entries; msg } ->
    Format.fprintf ppf "ENVELOPE(%a | %a)" pp_entries entries pp msg
  | Relay_batch { relays } ->
    Format.fprintf ppf "RELAY-BATCH(#%d %dB)" (List.length relays)
      (List.fold_left (fun acc m -> acc + data_bytes m) 0 relays)
  | Heartbeat { coordinate } -> Format.fprintf ppf "HEARTBEAT(c=%d)" coordinate
  | Suspect_vote { target; voter } ->
    Format.fprintf ppf "SUSPECT-VOTE(target=%d by=%d)" target voter
  | Keyed { key; msg } -> Format.fprintf ppf "KEYED(k=%d %a)" key pp msg
  | Keyed_gossip { kentries } ->
    Format.fprintf ppf "KEYED-GOSSIP(%a)" pp_kentries kentries
  | Keyed_envelope { kentries; key; msg } ->
    Format.fprintf ppf "KEYED-ENVELOPE(%a | k=%d %a)" pp_kentries kentries key
      pp msg
  | Keyed_batch { kitems } ->
    Format.fprintf ppf "KEYED-BATCH(#%d %dB)" (List.length kitems)
      (List.fold_left (fun acc (_, m) -> acc + data_bytes m) 0 kitems)
