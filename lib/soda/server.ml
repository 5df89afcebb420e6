module Engine = Simnet.Engine
module Tag = Protocol.Tag
module Params = Protocol.Params
module Cost = Protocol.Cost
module Probe = Protocol.Probe
module Fragment = Erasure.Fragment
module Int_tbl = Protocol.Int_tbl

type registration = { reader : int; tr : Tag.t }

(* The coordinates that dispersed one tag to one read: a bitmap of n
   bits, allocated at the first insert and never resized, with the
   number of bits set beside it. *)
type coords = { bits : Bytes.t; mutable count : int }

(* One in-flight recovery round (the paper's future work (ii)): the
   server rebuilds its coded element from peers over the REPAIR-GET /
   REPAIR-REPLY exchange. A crash round runs after a restore
   ([begin_repair]): the server refuses quorum duties until it holds an
   element whose tag is at least the highest replied by n-1-f distinct
   peers, which covers every write that completed before the repair
   started (see the safety note on [Deployment.repair_server]). A scrub
   round runs on a quarantined store: the server keeps its volatile
   state and keeps answering tag queries, only the payload is untrusted,
   and its floor is the stored tag. *)
type recovery = {
  op : int;
  crash : bool;
  mutable max_seen : Tag.t;
  repliers : (int, unit) Hashtbl.t; (* coordinates heard from *)
  collected : (Tag.t * int, Fragment.t) Hashtbl.t;
  mutable deferred : (int * Messages.t) list
      (* crash rounds: quorum queries (Write_get / Read_get / Repair_get)
         that arrived mid-repair, newest first. Over the reliable
         transport the channel has already acked them, so silently
         ignoring them would lose them forever — they are answered when
         the round finishes. *)
}

(* Failure-detector and scrubber state, allocated iff [Config.healing]
   is set. All cadences run on sim-time local actions; [hgen] guards
   the tick chains — a pre-crash tick firing after a restore would
   otherwise duplicate the chain restarted by [begin_repair]. *)
type heal_state = {
  last_heard : float array; (* per coordinate; own slot unused *)
  suspected : bool array; (* suspicion voiced this silence episode *)
  votes : (int, unit) Hashtbl.t array; (* per target: voters heard *)
  fired : bool array; (* auto-repair hook already pulled for target *)
  mutable hgen : int;
  mutable scrub_count : int (* scrub rounds started, for op ids *)
}

type t = {
  config : Config.t;
  coordinate : int;
  disk : Disk.t;
  (* Every per-read and per-message table below starts at capacity 0
     and so costs one record until used (see "Per-key state budget" in
     DESIGN.md): a keyspace holds one automaton per key and coordinate,
     and most of them never see a read. *)
  registered : registration Int_tbl.Map.t; (* rid -> Rc entry *)
  h : coords Int_tbl.Map.t Int_tbl.Map.t;
      (* The paper's H — the set of (tag, coordinate) dispersals seen per
         read — stored as rid -> Tag.pack tag -> coordinate bitmap, so
         the unregistration test (how many distinct coordinates
         dispersed this tag?) reads a count instead of folding over the
         set.
         Rows live only while the read may still register here: a
         completed read's row is dropped and never rebuilt. *)
  md_delivered : Mid_set.t;
      (* dispersals delivered here, as per-origin marks plus holes:
         bounded by the dispersals in flight, not by the history *)
  completed : Int_tbl.Set.t;
      (* rids whose READ-COMPLETE was delivered locally: the read's
         tombstone. One bit per finished read stops a late READ-VALUE
         retry from re-registering it, lets READ-DISPERSE skip its H row
         and prunes its queued gossip. *)
  seq : int ref;
  pending_meta : Int_tbl.Set.t;
      (* mids whose MD-META forward is sitting out a stagger delay *)
  mutable recovery : recovery option;
      (* at most one round: a crash round replaces whatever was in
         flight, and a scrub round starts only when none is *)
  mutable heal : heal_state option;
  mutable err_window : (float * float) option
      (* SODAerr: when set, the error-prone fault is active only inside
         [start, stop) — outside it local disk reads are clean. [None]
         keeps the static always-on model. *)
}

(* Value-slot padding for the tables above, one instance shared by
   every server (a per-server dummy would cost more than the empty
   tables it pads). [Int_tbl] only stores a dummy, never returns it for
   a present key, so no handler can reach one to mutate it. *)
let[@lint.allow
     "R1: a table dummy — Int_tbl never hands it out, so nothing writes it"]
    no_coords =
  { bits = Bytes.empty; count = 0 }

let[@lint.allow
     "R1: a table dummy — Int_tbl never hands it out, so nothing writes it"]
    no_tags =
  Int_tbl.Map.create ~dummy:no_coords 0

let no_registration = { reader = -1; tr = Tag.initial }

let create config ~coordinate =
  let fragment = config.Config.initial_fragments.(coordinate) in
  Cost.storage_set config.Config.cost ~server:coordinate
    ~bytes:(Fragment.size fragment);
  { config;
    coordinate;
    disk = Disk.create ~tag:Tag.initial ~fragment;
    registered = Int_tbl.Map.create ~dummy:no_registration 0;
    h = Int_tbl.Map.create ~dummy:no_tags 0;
    md_delivered = Mid_set.create ();
    completed = Int_tbl.Set.create 0;
    seq = ref 0;
    pending_meta = Int_tbl.Set.create 0;
    recovery = None;
    heal = None;
    err_window = None
  }

let stored_tag t = Disk.tag t.disk
let stored_fragment t = Disk.fragment_unchecked t.disk
let repairing t =
  match t.recovery with Some r -> r.crash | None -> false
let disk_ok t = (not (Disk.quarantined t.disk)) && Disk.verify t.disk
let corrupt_disk t ~seed = Disk.rot t.disk ~seed
let set_error_window t w = t.err_window <- w

let registered_reads t =
  List.sort Int.compare
    (Int_tbl.Map.fold (fun rid _ acc -> rid :: acc) t.registered [])

let history_entries t =
  Int_tbl.Map.fold
    (fun _ tags acc ->
      Int_tbl.Map.fold
        (fun _ coords acc -> acc + coords.count)
        tags acc)
    t.h 0

(* Registered reads in ascending rid order. Relays (and the READ-DISPERSE
   gossip they trigger) are message sends, so their emission order is part
   of the trace, and it stays rid order: the table's slot order depends on
   its insert/remove history and capacity, which are no protocol fact. *)
let registered_sorted t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Int_tbl.Map.fold (fun rid reg acc -> (rid, reg) :: acc) t.registered [])

(* The read's H row, created on first use. [find ~default] hands back
   the table's own dummy for an absent rid, which no key is ever bound
   to, so a physical test tells absence without [find_opt]'s [Some]. *)
let h_tags t rid =
  let tags = Int_tbl.Map.find t.h rid ~default:no_tags in
  if
    (tags != no_tags)
    [@lint.allow
      "P1: the table dummy is never bound to a key, so physical identity \
       with it is exactly absence"]
  then tags
  else begin
    let tags = Int_tbl.Map.create ~dummy:no_coords 0 in
    Int_tbl.Map.replace t.h rid tags;
    tags
  end

let coords_mem coords c =
  Bytes.get_uint8 coords.bits (c lsr 3) land (1 lsl (c land 7)) <> 0

let h_add t rid ~tag ~coordinate:c =
  let tags = h_tags t rid in
  let key = Tag.pack tag in
  let coords =
    match Int_tbl.Map.find_opt tags key with
    | Some coords -> coords
    | None ->
      let n = Params.n t.config.Config.params in
      let coords = { bits = Bytes.make ((n + 7) / 8) '\000'; count = 0 } in
      Int_tbl.Map.replace tags key coords;
      coords
  in
  let byte = Bytes.get_uint8 coords.bits (c lsr 3) and bit = 1 lsl (c land 7) in
  if byte land bit = 0 then begin
    Bytes.set_uint8 coords.bits (c lsr 3) (byte lor bit);
    coords.count <- coords.count + 1
  end;
  coords.count

let h_mem t rid ~tag ~coordinate =
  match Int_tbl.Map.find_opt t.h rid with
  | None -> false
  | Some tags -> (
    match Int_tbl.Map.find_opt tags (Tag.pack tag) with
    | None -> false
    | Some coords -> coords_mem coords coordinate)

let unregister t ctx rid =
  Int_tbl.Map.remove t.registered rid;
  Int_tbl.Map.remove t.h rid;
  Probe.emit t.config.Config.probe
    (Probe.Unregistered
       { rid; server = t.coordinate; time = Engine.now_ctx ctx })

(* Every server->server send goes through the configuration's wire: on
   the batched plane it carries the destination's pending gossip. *)
let send_to_coordinate t ctx ~coordinate:j msg =
  Config.send t.config ctx ~dst:t.config.Config.servers.(j) msg

(* ------------------------------------------------------------------ *)

(* Send one coded element to a registered reader and announce it to the
   other servers via READ-DISPERSE, so that everyone can count towards
   the unregistration threshold. Under the batched plane the wire holds
   the element for the relay window and queues the announcement, but H,
   the cost ledger and the probe stream see the relay at decision time
   either way. A read already sent this tag by this server, as H
   records while the read's row lives, is not sent it again: a
   READ-VALUE retry, a pre-crash MD copy that the repair wipe made new,
   or a round's catch-up relay right after a write's delivery would
   otherwise resend it. *)
let relay_to_reader t ctx ~rid ~(reg : registration) ~tag ~fragment =
  if not (h_mem t rid ~tag ~coordinate:t.coordinate) then begin
    Config.send t.config ctx ~dst:reg.reader
      (Messages.Relay { rid; tag; fragment });
    Cost.comm t.config.Config.cost ~op:rid ~bytes:(Fragment.size fragment);
    Probe.emit t.config.Config.probe
      (Probe.Relayed
         { rid; server = t.coordinate; tag; time = Engine.now_ctx ctx });
    ignore (h_add t rid ~tag ~coordinate:t.coordinate : int);
    match Config.gossip_mode t.config with
    | `Broadcast ->
      Md.meta_send ctx t.config ~seq:t.seq
        (Messages.Read_disperse { tag; server_index = t.coordinate; rid })
    | `Coalesced ->
      Config.gossip t.config ctx
        { Messages.tag; server_index = t.coordinate; rid }
    | `Off -> ()
  end

(* Fresh detection of bit-rot: the checksum just failed for the first
   time this episode (Disk.read has flipped the store to quarantined).
   Instrumentation only — launching the recovery is the caller's job,
   so the scrub path and the read path share one entry point. *)
let detect_corruption t ctx =
  Probe.emit t.config.Config.probe
    (Probe.Rot_detected { server = t.coordinate; time = Engine.now_ctx ctx })

(* Verified read of the stored coded element: [None] means the checksum
   does not match (now or earlier) and the fragment is quarantined —
   callers degrade gracefully by not shipping it anywhere. *)
let disk_read t ctx =
  let was_quarantined = Disk.quarantined t.disk in
  match Disk.read t.disk with
  | `Ok fragment -> Some fragment
  | `Corrupt ->
    if not was_quarantined then detect_corruption t ctx;
    None

(* SODAerr: is the error-prone fault currently active on this server? *)
let err_active t ctx =
  t.config.Config.error_prone.(t.coordinate)
  &&
  match t.err_window with
  | None -> true
  | Some (start, stop) ->
    let now = Engine.now_ctx ctx in
    now >= start && now < stop

(* Local disk read of the stored coded element; error-prone coordinates
   return a silently corrupted copy (the SODAerr fault model). The seed
   mixes the read id so different reads see independent corruption.
   [None] when the element is quarantined (checksum mismatch) — unlike
   the SODAerr model, detected corruption is withheld, not shipped. *)
let local_disk_read t ctx ~rid =
  match disk_read t ctx with
  | None -> None
  | Some fragment ->
    if err_active t ctx then
      Some (Fragment.corrupt fragment ~seed:(rid + (t.coordinate * 7919)))
    else Some fragment

(* ------------------------------------------------------------------ *)
(* Recovery rounds (the paper's future work (ii)) *)

let repair_retry_interval = 40.0

(* The healing plane's cadences, in sim time, tuned so that under the
   uniform(0.2, 2.0) delay model with retransmission three consecutive
   lost heartbeats are needed for a false suspicion. Every server
   broadcasts a HEARTBEAT to its peers every [heartbeat_period] and
   checks their last-heard times. A peer silent for longer than
   [suspicion_timeout] is suspected, so it must comfortably exceed the
   period plus the worst-case delivery delay, or live servers get
   suspected under loss. Every [scrub_period] a server verifies its
   element's checksum; a mismatch quarantines it and starts a scrub
   round. *)
let heartbeat_period = 10.0
let suspicion_timeout = 35.0
let scrub_period = 50.0

(* Generous: rounds are cheap and a round that exhausts its budget never
   clears (a crash round leaves the server mute forever, a scrub round
   its element quarantined), so the cap exists only to let the
   simulation quiesce in degenerate schedules. *)
let repair_max_attempts = 50

(* Recovery traffic is charged to synthetic op ids above every client
   op: crash rounds at 1_000_000 + a sequence the caller keeps per
   register (or per key), scrub rounds in a range of their own keyed by
   coordinate, so concurrent scrubs on different servers never collide. *)
let repair_op ~seq = 1_000_000 + seq
let scrub_op t ~seq = 2_000_000 + (t.coordinate * 10_000) + seq

let broadcast_repair_get t ctx ~op =
  Array.iteri
    (fun c _pid ->
      if c <> t.coordinate then
        send_to_coordinate t ctx ~coordinate:c (Messages.Repair_get { op }))
    t.config.Config.servers

(* The retry timer belongs to its round (op ids are never reused): one
   left over from a replaced round finds another op in [t.recovery] and
   stops, instead of doubling the retries of the next one. *)
let start_round t ctx ~op ~crash =
  let r =
    { op;
      crash;
      max_seen = Tag.initial;
      repliers = Hashtbl.create 8;
      collected = Hashtbl.create 16;
      deferred = []
    }
  in
  t.recovery <- Some r;
  broadcast_repair_get t ctx ~op;
  let rec retry attempts =
    Engine.schedule_local ctx ~delay:repair_retry_interval (fun () ->
        match t.recovery with
        | Some current when current.op = op && attempts < repair_max_attempts ->
          broadcast_repair_get t ctx ~op;
          retry (attempts + 1)
        | Some _ | None -> ())
  in
  retry 0

(* A detection (scrub sweep or read path) makes sure a scrub round is in
   flight. No-op while any round is (a crash round rebuilds the whole
   store anyway) or when healing is off (plain degradation: the
   quarantined element is simply never shipped). *)
let ensure_scrub t ctx =
  match (t.heal, t.recovery) with
  | Some hs, None ->
    hs.scrub_count <- hs.scrub_count + 1;
    start_round t ctx ~op:(scrub_op t ~seq:hs.scrub_count) ~crash:false
  | Some _, Some _ | None, _ -> ()

(* ------------------------------------------------------------------ *)
(* Heartbeat failure detector *)

let note_vote t ~target ~voter =
  match t.heal with
  | None -> ()
  | Some hs ->
    if target >= 0 && target < Array.length hs.fired && target <> t.coordinate
    then begin
      Hashtbl.replace hs.votes.(target) voter ();
      if
        (not hs.fired.(target))
        && Hashtbl.length hs.votes.(target)
           >= Params.f t.config.Config.params + 1
      then begin
        hs.fired.(target) <- true;
        match t.config.Config.auto_repair with
        | Some hook -> hook target
        | None -> ()
      end
    end

let on_heartbeat t ctx ~coordinate:c =
  match t.heal with
  | None -> ()
  | Some hs ->
    if c >= 0 && c < Array.length hs.last_heard && c <> t.coordinate
    then begin
      hs.last_heard.(c) <- Engine.now_ctx ctx;
      (* the silence episode is over: forgive the suspicion so a healed
         partition (a false positive) does not leave the target
         permanently voted against *)
      hs.suspected.(c) <- false;
      hs.fired.(c) <- false;
      Hashtbl.reset hs.votes.(c)
    end

let suspect t ctx hs ~target =
  hs.suspected.(target) <- true;
  Probe.emit t.config.Config.probe
    (Probe.Suspected
       { target; by = t.coordinate; time = Engine.now_ctx ctx });
  note_vote t ~target ~voter:t.coordinate;
  Array.iteri
    (fun c _pid ->
      if c <> t.coordinate && c <> target then
        send_to_coordinate t ctx ~coordinate:c
          (Messages.Suspect_vote { target; voter = t.coordinate }))
    t.config.Config.servers

(* The two tick chains. [gen] kills stale chains: local actions queued
   before a crash are discarded only while the owner is down — one
   firing after the restore would duplicate the chain restarted by
   [begin_repair] if it were not generation-guarded. *)
let rec heartbeat_tick t ctx gen =
  match t.heal with
  | None -> ()
  | Some hs ->
    if gen = hs.hgen then begin
      Array.iteri
        (fun c _pid ->
          if c <> t.coordinate then
            send_to_coordinate t ctx ~coordinate:c
              (Messages.Heartbeat { coordinate = t.coordinate }))
        t.config.Config.servers;
      let stats = t.config.Config.heal_stats in
      stats.Config.heartbeats_sent <-
        stats.Config.heartbeats_sent
        + Array.length t.config.Config.servers
        - 1;
      let now = Engine.now_ctx ctx in
      for c = 0 to Array.length hs.last_heard - 1 do
        if
          c <> t.coordinate
          && (not hs.suspected.(c))
          && now -. hs.last_heard.(c) > suspicion_timeout
        then suspect t ctx hs ~target:c
      done;
      Engine.schedule_local ctx ~delay:heartbeat_period
        (fun () -> heartbeat_tick t ctx gen)
    end

let rec scrub_tick t ctx gen =
  match t.heal with
  | None -> ()
  | Some hs ->
    if gen = hs.hgen then begin
      let stats = t.config.Config.heal_stats in
      stats.Config.scrub_sweeps <- stats.Config.scrub_sweeps + 1;
      (if not (repairing t) then
         match disk_read t ctx with
         | Some _ -> () (* checksum clean *)
         | None -> ensure_scrub t ctx (* quarantined *));
      Engine.schedule_local ctx ~delay:scrub_period (fun () ->
          scrub_tick t ctx gen)
    end

(* Arm the healing plane on this server; injected by the deployment at
   deploy time (and a no-op when [Config.healing] is off, so unhealed
   deployments schedule not a single extra event). *)
let start_healing t ctx =
  if t.config.Config.healing then begin
    let n = Params.n t.config.Config.params in
    let hs =
      { last_heard = Array.make n (Engine.now_ctx ctx);
        suspected = Array.make n false;
        votes = Array.init n (fun _ -> Hashtbl.create 4);
        fired = Array.make n false;
        hgen = 0;
        scrub_count = 0
      }
    in
    t.heal <- Some hs;
    heartbeat_tick t ctx 0;
    scrub_tick t ctx 0
  end

(* ------------------------------------------------------------------ *)

let answer_query t ctx ~src = function
  | Messages.Write_get { op } ->
    Config.send t.config ctx ~dst:src
      (Messages.Write_get_reply { op; tag = Disk.tag t.disk })
  | Messages.Read_get { rid } ->
    Config.send t.config ctx ~dst:src
      (Messages.Read_get_reply { rid; tag = Disk.tag t.disk })
  | Messages.Repair_get { op } -> (
    match local_disk_read t ctx ~rid:op with
    | None ->
      (* quarantined: shipping a garbage element into a peer's decode
         would be worse than silence — the requester's retry cadence
         re-asks once this store heals *)
      ensure_scrub t ctx
    | Some fragment ->
      Cost.comm t.config.Config.cost ~op ~bytes:(Fragment.size fragment);
      Config.send t.config ctx ~dst:src
        (Messages.Repair_reply { op; tag = Disk.tag t.disk; fragment }))
  | _ -> ()

(* The freshest tag at or above [floor] that decode_threshold distinct
   coordinates hold and whose fragments, taken in coordinate order,
   decode. *)
let decode_target t r ~floor =
  let[@lint.allow
       "D3: materialized and sorted (tag descending, coordinate \
        ascending) before any decision, so the decode input is \
        schedule-independent"] pairs =
    Hashtbl.fold
      (fun (tag, coordinate) fragment acc ->
        ((tag, coordinate), fragment) :: acc)
      r.collected []
    |> List.sort (fun ((t1, c1), _) ((t2, c2), _) ->
           match Tag.compare t2 t1 with
           | 0 -> Int.compare c1 c2
           | cmp -> cmp)
  in
  let rec scan = function
    | [] -> None
    | ((tag, _), _) :: _ when Tag.( > ) floor tag ->
      None (* sorted descending: nothing fresh enough remains *)
    | ((tag, _), _) :: _ as l -> (
      let same, rest =
        List.partition (fun ((t', _), _) -> Tag.equal t' tag) l
      in
      if List.length same < t.config.Config.decode_threshold then scan rest
      else
        match Erasure.Mds.decode t.config.Config.code (List.map snd same) with
        | value -> Some (tag, value)
        | exception Erasure.Mds.Decode_failure _ ->
          (* SODAerr: too many error-prone replies at this tag for now —
             more replies or a retry will refresh them *)
          scan rest)
  in
  scan pairs

let finish_round t ctx r =
  t.recovery <- None;
  let tag = Disk.tag t.disk in
  if r.crash then
    Probe.emit t.config.Config.probe
      (Probe.Repaired
         { server = t.coordinate; tag; time = Engine.now_ctx ctx });
  (* The catch-up relay: reads that registered while the element was
     untrusted had their local relay withheld (see [on_read_value]);
     send it now, or a reader counting on this server for its kth
     element would wait forever. *)
  List.iter
    (fun (rid, reg) ->
      if Tag.( >= ) tag reg.tr then
        match local_disk_read t ctx ~rid with
        | Some fragment -> relay_to_reader t ctx ~rid ~reg ~tag ~fragment
        | None -> ())
    (registered_sorted t);
  (* Answer the quorum queries deferred mid-repair, in arrival order,
     with the recovered tag. *)
  List.iter (fun (src, msg) -> answer_query t ctx ~src msg)
    (List.rev r.deferred)

(* The round's floor: for a crash round the highest tag replied, once
   n-1-f peers have answered; for a scrub round the stored tag, which it
   never regresses (tags are metadata, intact under rot, and this server
   may have acked queries with it). A round whose own element is trusted
   and at the floor finishes without decoding — a write's delivery can
   end a round by itself. *)
let advance t ctx =
  match t.recovery with
  | None -> ()
  | Some r -> (
    let params = t.config.Config.params in
    let floor =
      if not r.crash then Some (Disk.tag t.disk)
      else if Hashtbl.length r.repliers >= Params.n params - 1 - Params.f params
      then Some r.max_seen
      else None
    in
    match floor with
    | None -> ()
    | Some floor
      when (not (Disk.quarantined t.disk))
           && Tag.( >= ) (Disk.tag t.disk) floor ->
      finish_round t ctx r
    | Some floor -> (
      match decode_target t r ~floor with
      | None -> ()
      | Some (tag, value) ->
        let fragment =
          (Erasure.Mds.encode t.config.Config.code value).(t.coordinate)
        in
        Disk.store t.disk ~tag ~fragment;
        Cost.storage_set t.config.Config.cost ~server:t.coordinate
          ~bytes:(Fragment.size fragment);
        let time = Engine.now_ctx ctx in
        Probe.emit t.config.Config.probe
          (if r.crash then Probe.Stored { server = t.coordinate; tag; time }
           else Probe.Scrub_repaired { server = t.coordinate; tag; time });
        finish_round t ctx r))

(* Called right after [Engine.restore_at] fires: volatile state is gone
   (the crash lost it), the element reverts to the initial state, and
   the server starts fetching the current one. Until repair finishes it
   answers no quorum queries. *)
let begin_repair t ctx ~op =
  let fragment = t.config.Config.initial_fragments.(t.coordinate) in
  Disk.store t.disk ~tag:Tag.initial ~fragment;
  Cost.storage_set t.config.Config.cost ~server:t.coordinate
    ~bytes:(Fragment.size fragment);
  Int_tbl.Map.reset t.registered;
  Int_tbl.Map.reset t.h;
  Mid_set.reset t.md_delivered;
  Int_tbl.Set.reset t.completed;
  Int_tbl.Set.reset t.pending_meta;
  (* the crash lost the detector's and scrubber's timers too: reset
     their state (a freshly restored server has heard everyone "now" —
     it must re-earn its suspicions) and restart the tick chains under a
     new generation, killing any pre-crash chain that survived in the
     event queue *)
  (match t.heal with
  | None -> ()
  | Some hs ->
    let now = Engine.now_ctx ctx in
    Array.fill hs.last_heard 0 (Array.length hs.last_heard) now;
    Array.fill hs.suspected 0 (Array.length hs.suspected) false;
    Array.iter Hashtbl.reset hs.votes;
    Array.fill hs.fired 0 (Array.length hs.fired) false;
    hs.hgen <- hs.hgen + 1;
    heartbeat_tick t ctx hs.hgen;
    scrub_tick t ctx hs.hgen);
  Probe.emit t.config.Config.probe
    (Probe.Repair_started { server = t.coordinate; time = Engine.now_ctx ctx });
  start_round t ctx ~op ~crash:true

let on_repair_reply t ctx ~src ~op ~tag ~fragment =
  match t.recovery with
  | Some r when r.op = op -> (
    match Config.coordinate_of t.config ~pid:src with
    | coordinate ->
      Hashtbl.replace r.repliers coordinate ();
      if Tag.( > ) tag r.max_seen then r.max_seen <- tag;
      Hashtbl.replace r.collected (tag, coordinate) fragment;
      advance t ctx
    | exception Not_found -> ())
  | Some _ | None -> ()

(* Fig. 5, "On md-value-deliver(tw, c's)": relay to registered readers,
   adopt the element if its tag is newer, acknowledge the writer. *)
let md_value_deliver t ctx ~op ~tag:tw ~fragment =
  List.iter
    (fun (rid, reg) ->
      if Tag.( >= ) tw reg.tr then
        relay_to_reader t ctx ~rid ~reg ~tag:tw ~fragment)
    (registered_sorted t);
  if Tag.( > ) tw (Disk.tag t.disk) then begin
    (* adopting a fresh element also heals a quarantined store by
       overwrite (the checksum is recomputed) *)
    Disk.store t.disk ~tag:tw ~fragment;
    Cost.storage_set t.config.Config.cost ~server:t.coordinate
      ~bytes:(Fragment.size fragment);
    Probe.emit t.config.Config.probe
      (Probe.Stored
         { server = t.coordinate; tag = tw; time = Engine.now_ctx ctx });
    (* a delivery can end an in-flight round by itself *)
    advance t ctx
  end;
  (* The writer's id is part of the tag, so the acknowledgement needs no
     extra routing state. *)
  if tw.Tag.w >= 0 then
    Config.send t.config ctx ~dst:tw.Tag.w (Messages.Write_ack { op; tag = tw })

(* Fig. 5, "On md-meta-deliver(READ-VALUE, (r, tr))". *)
let on_read_value t ctx ~rid ~reader ~tr =
  (* Skip the registration when the read's READ-COMPLETE already arrived
     (its tombstone in [completed] is kept, not consumed: clients over
     the reliable transport re-broadcast READ-VALUE until the read
     returns, and a spent tombstone would let a late retry re-register a
     finished read as a ghost), when the read is still registered here
     (a retry leaves that registration alone: anything it could relay is
     already relayed or waits on a repair or a write), and when this
     server already relayed the initial value to it while registered. *)
  let already_served =
    Int_tbl.Set.mem t.completed rid
    || Int_tbl.Map.mem t.registered rid
    || h_mem t rid ~tag:Tag.initial ~coordinate:t.coordinate
  in
  if not already_served then begin
    let reg = { reader; tr } in
    Int_tbl.Map.replace t.registered rid reg;
    Probe.emit t.config.Config.probe
      (Probe.Registered
         { rid; server = t.coordinate; time = Engine.now_ctx ctx });
    (* a repairing server's stored element may be stale (reset to the
       initial state): relaying it could let a reader assemble k old
       elements, so the local relay is withheld until repair finishes;
       concurrent writes still relay normally. A quarantined element is
       withheld the same way (shipping garbage into a plain-SODA decode
       at exactly k fragments would silently corrupt the read) — the
       detection kicks a targeted repair, whose completion relays. *)
    let tag = Disk.tag t.disk in
    if (not (repairing t)) && Tag.( >= ) tag tr then
      match local_disk_read t ctx ~rid with
      | Some fragment -> relay_to_reader t ctx ~rid ~reg ~tag ~fragment
      | None -> ensure_scrub t ctx
  end

(* Fig. 5, "On md-meta-deliver(READ-COMPLETE, (r, tr))". *)
let on_read_complete t ctx ~rid =
  if Int_tbl.Map.mem t.registered rid then unregister t ctx rid
  else Int_tbl.Map.remove t.h rid;
  (* Leave a tombstone either way — whether completion raced ahead of
     the registration or a READ-VALUE retry is still in flight, a copy
     arriving after this point must not (re-)register the read. The bit
     in [completed] is the whole tombstone; the read's H row goes, and
     [on_read_disperse] never rebuilds it. Nothing would read it: H is
     consulted only for registered reads (the unregistration count and
     the relay filter of [relay_to_reader]) and by [on_read_value], which
     tests [completed] first. A completed rid can never register again,
     and [begin_repair] wipes [h] and [completed] together. *)
  ignore (Int_tbl.Set.add t.completed rid : bool)

(* Fig. 5, "On md-meta-deliver(READ-DISPERSE, (t, s', r))"; the
   unregistration threshold is k for SODA and k + 2e for SODAerr
   (Fig. 6). Announcements for a completed read are dropped (see
   [on_read_complete]). *)
let on_read_disperse t ctx ~tag ~server_index ~rid =
  if not (Int_tbl.Set.mem t.completed rid) then begin
    let count = h_add t rid ~tag ~coordinate:server_index in
    if
      count >= t.config.Config.decode_threshold
      && Int_tbl.Map.mem t.registered rid
    then unregister t ctx rid
  end

let deliver_meta t ctx = function
  | Messages.Read_value { rid; reader; tr } -> on_read_value t ctx ~rid ~reader ~tr
  | Messages.Read_complete { rid; reader = _; tr = _ } ->
    on_read_complete t ctx ~rid
  | Messages.Read_disperse { tag; server_index; rid } ->
    on_read_disperse t ctx ~tag ~server_index ~rid

(* Server side of MD-VALUE: a member of D forwards the full value down
   the chain and coded elements to everyone outside D, then delivers its
   own element; the ordering (relays before local delivery) is what makes
   the primitive uniform under crashes. *)
let on_md_full t ctx ~msg ~(mid : Messages.mid) ~op ~tag ~value =
  if Mid_set.add t.md_delivered mid then begin
    let config = t.config in
    let d = Config.d_size config in
    let fragments = Config.encode config ~writer:tag.Tag.w value in
    if t.coordinate < d then begin
      for j = t.coordinate + 1 to d - 1 do
        (* forward the incoming message as-is: contents are identical *)
        send_to_coordinate t ctx ~coordinate:j msg;
        Cost.comm config.Config.cost ~op ~bytes:(Bytes.length value)
      done;
      for j = d to Params.n config.Config.params - 1 do
        send_to_coordinate t ctx ~coordinate:j
          (Messages.Md_coded { mid; op; tag; fragment = fragments.(j) });
        Cost.comm config.Config.cost ~op
          ~bytes:(Fragment.size fragments.(j))
      done
    end;
    md_value_deliver t ctx ~op ~tag ~fragment:fragments.(t.coordinate)
  end

let on_md_coded t ctx ~(mid : Messages.mid) ~op ~tag ~fragment =
  if Mid_set.add t.md_delivered mid then begin
    md_value_deliver t ctx ~op ~tag ~fragment
  end

(* Server side of MD-META: members of D forward the payload to the rest
   of D and to everyone outside D, then deliver.

   With [meta_stagger = Some sigma], coordinate i > 0 sits on its
   forwards for i*sigma and cancels them when a duplicate of the mid
   arrives from a lower coordinate — whose forward set (everything above
   its own coordinate) is a superset of ours, so the cancelled sends are
   provably redundant. Coordinate 0 always forwards immediately, keeping
   the primitive's uniformity anchored: the forward storm collapses from
   O(f*n) to O(n) whenever the lowest live member of D gets its copy. *)
let on_md_meta t ctx ~src ~msg ~(mid : Messages.mid) ~meta =
  let config = t.config in
  if Mid_set.add t.md_delivered mid then begin
    let d = Config.d_size config in
    if t.coordinate < d then begin
      let forward () =
        Config.send_coordinates config ctx ~from:(t.coordinate + 1) msg
      in
      match Config.meta_stagger config with
      | None -> forward ()
      | Some _ when t.coordinate = 0 -> forward ()
      | Some sigma ->
        ignore (Int_tbl.Set.add t.pending_meta (mid :> int) : bool);
        Engine.schedule_local ctx
          ~delay:(float_of_int t.coordinate *. sigma) (fun () ->
            if Int_tbl.Set.mem t.pending_meta (mid :> int) then begin
              Int_tbl.Set.remove t.pending_meta (mid :> int);
              forward ()
            end)
    end;
    deliver_meta t ctx meta
  end
  else if
    Option.is_some (Config.meta_stagger config)
    && Int_tbl.Set.mem t.pending_meta (mid :> int)
  then
    (* duplicate copy: a lower-coordinate server's forward covers a
       superset of our pending one — cancel it (only staggering ever
       makes a forward pending) *)
    match Config.coordinate_of config ~pid:src with
    | c when c < t.coordinate -> Int_tbl.Set.remove t.pending_meta (mid :> int)
    | _ -> ()
    | exception Not_found -> ()

let rec handler t ctx ~src msg =
  match msg with
  | Messages.Write_get _ | Messages.Read_get _ | Messages.Repair_get _ -> (
    (* a repairing server may hold a stale tag, so it must not answer
       quorum queries with it. It cannot silently drop them either: over
       the reliable transport the channel has already acked the query,
       so the sender will never retransmit — the query is deferred and
       answered when the repair completes. *)
    match t.recovery with
    | Some r when r.crash -> r.deferred <- (src, msg) :: r.deferred
    | Some _ | None -> answer_query t ctx ~src msg)
  | Messages.Repair_reply { op; tag; fragment } ->
    on_repair_reply t ctx ~src ~op ~tag ~fragment
  | Messages.Md_full { mid; op; tag; value } ->
    on_md_full t ctx ~msg ~mid ~op ~tag ~value
  | Messages.Md_coded { mid; op; tag; fragment } ->
    on_md_coded t ctx ~mid ~op ~tag ~fragment
  | Messages.Md_meta { mid; meta } -> on_md_meta t ctx ~src ~msg ~mid ~meta
  | Messages.Heartbeat { coordinate } ->
    (* processed even mid-repair: a repairing server is live and must
       neither be suspected nor suspend its own detector *)
    on_heartbeat t ctx ~coordinate
  | Messages.Suspect_vote { target; voter } -> note_vote t ~target ~voter
  | Messages.Gossip { entries } ->
    List.iter
      (fun { Messages.tag; server_index; rid } ->
        on_read_disperse t ctx ~tag ~server_index ~rid)
      entries
  | Messages.Envelope { entries; msg } ->
    (* apply the piggybacked gossip (monotone H insertions — safe during
       repair, on the freshly wiped H), then handle the message itself *)
    List.iter
      (fun { Messages.tag; server_index; rid } ->
        on_read_disperse t ctx ~tag ~server_index ~rid)
      entries;
    handler t ctx ~src msg
  | Messages.Write_get_reply _ | Messages.Write_ack _
  | Messages.Read_get_reply _ | Messages.Relay _ | Messages.Relay_batch _ ->
    (* client-bound messages; a server never receives these *)
    ()
  | Messages.Keyed _ | Messages.Keyed_gossip _ | Messages.Keyed_envelope _
  | Messages.Keyed_batch _ ->
    (* keyspace frames are unwrapped by the shared plane before the
       per-key automaton sees them; a bare deployment never gets any *)
    ()

(* Plane entry points: the keyspace applies cross-key gossip entries
   directly (same monotone H insertion as a standalone READ-DISPERSE),
   and every plane filters queued entries by the queuing instance's
   completion state: a read whose READ-COMPLETE already reached this
   server needs no more gossip from it, since every peer unregisters
   through its own READ-COMPLETE delivery. *)
let apply_gossip_entry t ctx ({ Messages.tag; server_index; rid } : Messages.gossip_entry) =
  on_read_disperse t ctx ~tag ~server_index ~rid

let gossip_live t (e : Messages.gossip_entry) =
  not (Int_tbl.Set.mem t.completed e.Messages.rid)
