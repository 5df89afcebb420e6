type pid = int

(* ------------------------------------------------------------------ *)
(* Queue representation.

   The hot path of a simulation is send -> push -> pop -> dispatch, so
   queued events are not represented as a variant (the previous
   [Deliver of {src; dst; msg}] cost one 4-word block per send). The
   event kind and the endpoint pids are packed into the event queue's
   unboxed tag word, and the queue's payload slot carries the message
   (or the local action's closure) directly:

     bits 0-3   kind (k_* below)
     bits 4-23  src pid (deliver/data/ack/rexmit) / owner pid (local,
                injected, control)
     bits 24-43 dst pid (deliver/data/ack/rexmit only)
     bits 44-62 channel sequence number (data/ack/rexmit only)

   The payload is an [Obj.t] whose real type is determined by the kind:

     k_deliver / k_data -> 'msg
     k_local    -> unit -> unit
     k_injected -> 'msg context -> unit
     k_control  -> unit -> unit (fault-plane transitions)
     k_crash / k_restore / k_ack / k_rexmit -> unit (a dummy immediate)

   The packing caps pids at 2^20 - 1 ([reserve] enforces it) and
   reliable-channel sequence numbers at 2^19 - 1 per directed link
   ([Channel.register] enforces it). Pushes and pops are consistent by
   construction ([dispatch] is the only reader), so the [Obj.obj] casts
   below never see a payload of the wrong type. *)

let k_deliver = 0
let k_local = 1
let k_injected = 2
let k_crash = 3
let k_restore = 4
let k_control = 5
let k_data = 6
let k_ack = 7
let k_rexmit = 8

let max_pid = 0xFFFFF

let pack ~kind ~a ~b = kind lor (a lsl 4) lor (b lsl 24)
let pack_seq ~kind ~a ~b ~seq = pack ~kind ~a ~b lor (seq lsl 44)
let tag_kind tag = tag land 15
let tag_a tag = (tag lsr 4) land max_pid
let tag_b tag = (tag lsr 24) land max_pid
let tag_seq tag = (tag lsr 44) land Channel.max_seq

let obj_unit = Obj.repr 0

(* Observation-only tap for payload-aware trace tooling (bin/replay):
   called at protocol deliveries and ack transmissions. Installing one
   draws no randomness and schedules nothing, so it cannot perturb the
   execution it observes. *)
type 'msg tap = {
  tap_deliver : time:float -> src:pid -> dst:pid -> 'msg -> unit;
  tap_ack :
    time:float -> src:pid -> dst:pid -> cumulative:bool -> seq:int -> unit
}

type 'msg process_slot = {
  name : string;
  mutable handler : ('msg context -> src:pid -> 'msg -> unit) option;
  mutable crashed : bool;
  (* one context per process, allocated at registration, so dispatch
     reuses it instead of allocating one per delivered event *)
  mutable ctx : 'msg context option
}

and 'msg t = {
  mutable processes : 'msg process_slot array;
  mutable nprocs : int;
  queue : Obj.t Event_queue.t;
  root_rng : Rng.t;
  net_rng : Rng.t;
  delay : Delay.t;
  duplication : float;
  faults : Link_faults.t;
  (* the reliable-channel substrate, or [None] for the raw transport;
     classified once at creation so the send hot path pays a single
     immediate comparison *)
  channel : Channel.t option;
  (* protocol-supplied data/metadata discriminator; when absent the
     data/meta counters stay at zero *)
  classify : ('msg -> bool) option;
  (* protocol-supplied logical-units weigher: how many standalone
     messages one wire frame replaces (batches, envelopes); when absent
     the payload-units counter stays at zero *)
  weigh : ('msg -> int) option;
  (* simulated time, in a one-slot float array so per-event clock
     updates store unboxed (a [mutable float] field of this mixed
     record would box on every store) *)
  clock : float array;
  (* when the last reliable data copy transmitted lands, [infinity] if
     it was lost; one slot for the same unboxed-store reason as [clock] *)
  copy_at : float array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable lost : int;
  mutable executed : int;
  mutable data_sent : int;
  mutable meta_sent : int;
  mutable payload_units : int;
  mutable acks_sent : int;
  mutable tap : 'msg tap option;
  trace_enabled : bool;
  mutable trace : event array;
  mutable trace_len : int
}

and 'msg context = { engine : 'msg t; ctx_self : pid }

and event =
  | Sent of { time : float; src : pid; dst : pid }
  | Delivered of { time : float; src : pid; dst : pid }
  | Dropped of { time : float; src : pid; dst : pid }
  | Lost of { time : float; src : pid; dst : pid }
  | Crashed of { time : float; pid : pid }
  | Restored of { time : float; pid : pid }
  | PartitionStart of { time : float; links : (pid * pid) list }
  | PartitionHeal of { time : float; links : (pid * pid) list }

exception Event_limit_exceeded of int

let create ?(seed = 0) ?(trace = false) ?(duplication = 0.0)
    ?(transport = `Raw) ?classify ?weigh ~delay () =
  if duplication < 0.0 || duplication >= 1.0 then
    invalid_arg "Engine.create: duplication must be in [0, 1)";
  let root_rng = Rng.create seed in
  let channel =
    match transport with
    | `Raw -> None
    | `Reliable config -> Some (Channel.create config)
  in
  { processes = [||];
    nprocs = 0;
    queue = Event_queue.create ();
    net_rng = Rng.split root_rng;
    root_rng;
    delay;
    duplication;
    faults = Link_faults.create ();
    channel;
    classify;
    weigh;
    clock = [| 0.0 |];
    copy_at = [| 0.0 |];
    sent = 0;
    delivered = 0;
    dropped = 0;
    lost = 0;
    executed = 0;
    data_sent = 0;
    meta_sent = 0;
    payload_units = 0;
    acks_sent = 0;
    tap = None;
    trace_enabled = trace;
    trace = [||];
    trace_len = 0
  }

let record t ev =
  if t.trace_enabled then begin
    if t.trace_len >= Array.length t.trace then begin
      let cap = max 256 (2 * Array.length t.trace) in
      let fresh = Array.make cap ev in
      Array.blit t.trace 0 fresh 0 t.trace_len;
      t.trace <- fresh
    end;
    t.trace.(t.trace_len) <- ev;
    t.trace_len <- t.trace_len + 1
  end

let check_pid t pid ~where =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "%s: unknown pid %d" where pid)

let reserve t ~name =
  if t.nprocs > max_pid then invalid_arg "Engine.reserve: too many processes";
  if t.nprocs >= Array.length t.processes then begin
    let cap = max 8 (2 * Array.length t.processes) in
    let slot = { name = ""; handler = None; crashed = false; ctx = None } in
    let fresh = Array.make cap slot in
    Array.blit t.processes 0 fresh 0 t.nprocs;
    t.processes <- fresh
  end;
  let pid = t.nprocs in
  let slot = { name; handler = None; crashed = false; ctx = None } in
  slot.ctx <- Some { engine = t; ctx_self = pid };
  t.processes.(pid) <- slot;
  t.nprocs <- t.nprocs + 1;
  pid

let ctx_of slot =
  match slot.ctx with Some ctx -> ctx | None -> assert false

let set_handler t pid handler =
  check_pid t pid ~where:"Engine.set_handler";
  match t.processes.(pid).handler with
  | Some _ -> invalid_arg "Engine.set_handler: handler already installed"
  | None -> t.processes.(pid).handler <- Some handler

let set_tap t tap = t.tap <- Some tap

let process_count t = t.nprocs

let name_of t pid =
  check_pid t pid ~where:"Engine.name_of";
  t.processes.(pid).name

let self ctx = ctx.ctx_self
let now t = t.clock.(0)
let now_ctx ctx = ctx.engine.clock.(0)
let rng_ctx ctx = ctx.engine.root_rng

(* ------------------------------------------------------------------ *)
(* Fault plane *)

let set_loss t p = Link_faults.set_default_drop t.faults p

let check_links t links ~where =
  List.iter
    (fun (a, b) ->
      check_pid t a ~where;
      check_pid t b ~where)
    links

let push_control t ~at action =
  Event_queue.push_tagged t.queue ~time:(Float.max at t.clock.(0))
    ~tag:(pack ~kind:k_control ~a:0 ~b:0)
    (Obj.repr (action : unit -> unit))

let partition_at t ~links ~at =
  check_links t links ~where:"Engine.partition_at";
  push_control t ~at (fun () ->
      Link_faults.cut_links t.faults links;
      record t (PartitionStart { time = t.clock.(0); links }))

let heal_at t ~links ~at =
  check_links t links ~where:"Engine.heal_at";
  push_control t ~at (fun () ->
      Link_faults.heal_links t.faults links;
      record t (PartitionHeal { time = t.clock.(0); links }))

(* Loss verdict for one physical transmission entering link src->dst.
   Only meaningful when the plane is armed; the caller guards, so the
   unarmed hot path never touches the hashtable (or the rng). *)
let faults_lose t ~src ~dst =
  Link_faults.partitioned t.faults ~src ~dst
  ||
  let p = Link_faults.drop_p t.faults in
  p > 0.0 && Rng.float t.net_rng 1.0 < p

(* ------------------------------------------------------------------ *)
(* Send paths *)

(* Raw transport over an armed fault plane: the cold variant of the
   inline fast path below, sharing its counters and trace discipline. *)
let send_raw_faulty t ~src ~dst msg =
  t.sent <- t.sent + 1;
  if t.trace_enabled then record t (Sent { time = t.clock.(0); src; dst });
  if faults_lose t ~src ~dst then begin
    t.lost <- t.lost + 1;
    if t.trace_enabled then record t (Lost { time = t.clock.(0); src; dst })
  end
  else begin
    let transit = Delay.draw t.delay t.net_rng ~src ~dst in
    (Event_queue.inbox t.queue).(0) <- t.clock.(0) +. transit;
    Event_queue.push_inbox t.queue
      ~tag:(pack ~kind:k_deliver ~a:src ~b:dst)
      (Obj.repr msg)
  end

(* Retransmission timers are lazy. Every transmission's loss and delay
   are drawn when it is sent, so a send's timer deadline waits in its
   channel slot and the timer is pushed only once an event shows it can
   fire: a copy lost, landing at or after the deadline, or dropped at a
   dead destination, or its ack lost or landing at or after the
   deadline. Until then the ack is due strictly before the deadline,
   and a pushed timer would pop as a no-op after it.

   Each event on the reliable path resolves its link once and passes it
   to every channel call; times go to and from the channel through its
   one-slot cell ([Channel.cell]), so no float crosses a call. *)

(* Queue the timer of pending send [seq], due at the time in the
   queue's inbox. *)
let push_rexmit t ~src ~dst ~seq =
  Event_queue.push_inbox t.queue
    ~tag:(pack_seq ~kind:k_rexmit ~a:src ~b:dst ~seq)
    obj_unit

(* An event at the time in the channel's cell ([infinity]: never) is
   the earliest the ack can discharge pending send [seq]; push its
   timer if that is too late. *)
let arm_rexmit t ch l ~src ~dst ~seq =
  if Channel.arm ch l ~seq then begin
    let deadline = (Channel.cell ch).(0) in
    (* a pending, unarmed send is acked before its deadline, so no
       event at or after the deadline can find it unarmed *)
    assert (deadline > t.clock.(0));
    (Event_queue.inbox t.queue).(0) <- deadline;
    push_rexmit t ~src ~dst ~seq
  end

(* One physical transmission of a reliable-channel data packet (first
   copy, duplicate, or retransmission): subject to the fault plane like
   any raw send, and traced as an ordinary [Sent]. Leaves its landing
   time in [copy_at] for [schedule_rexmit]. *)
let transmit_data t ~src ~dst ~seq payload =
  t.sent <- t.sent + 1;
  if t.trace_enabled then record t (Sent { time = t.clock.(0); src; dst });
  if Link_faults.armed t.faults && faults_lose t ~src ~dst then begin
    t.lost <- t.lost + 1;
    t.copy_at.(0) <- Float.infinity;
    if t.trace_enabled then record t (Lost { time = t.clock.(0); src; dst })
  end
  else begin
    let transit = Delay.draw t.delay t.net_rng ~src ~dst in
    t.copy_at.(0) <- t.clock.(0) +. transit;
    (Event_queue.inbox t.queue).(0) <- t.copy_at.(0);
    Event_queue.push_inbox t.queue
      ~tag:(pack_seq ~kind:k_data ~a:src ~b:dst ~seq)
      payload
  end

(* Acks travel dst -> src. An ack is accounted when it is transmitted:
   [Sent], then [Lost], or [Dropped] (counted) when the data's sender is
   crashed at that moment, else [Delivered]. Its landing time is drawn
   here too, so [Channel.settle] discharges the send at once when the
   ack beats the timer; only a late ack is queued, with the data
   direction in its tag so its landing finds the pending entry without
   unpacking a payload. *)
let transmit_ack t ch l ~src ~dst ~seq =
  t.sent <- t.sent + 1;
  t.acks_sent <- t.acks_sent + 1;
  (match t.tap with
  | Some tap ->
    tap.tap_ack ~time:t.clock.(0) ~src ~dst ~cumulative:false ~seq
  | None -> ());
  if t.trace_enabled then
    record t (Sent { time = t.clock.(0); src = dst; dst = src });
  let cell = Channel.cell ch in
  if Link_faults.armed t.faults && faults_lose t ~src:dst ~dst:src then begin
    t.lost <- t.lost + 1;
    if t.trace_enabled then
      record t (Lost { time = t.clock.(0); src = dst; dst = src });
    cell.(0) <- Float.infinity;
    arm_rexmit t ch l ~src ~dst ~seq
  end
  else begin
    (* the send is discharged even if its sender is crashed: the channel
       state lives in the network interface, not in the process's
       volatile memory *)
    if t.processes.(src).crashed then begin
      t.dropped <- t.dropped + 1;
      if t.trace_enabled then
        record t (Dropped { time = t.clock.(0); src = dst; dst = src })
    end
    else if t.trace_enabled then
      record t (Delivered { time = t.clock.(0); src = dst; dst = src });
    let transit = Delay.draw t.delay t.net_rng ~src:dst ~dst:src in
    cell.(0) <- t.clock.(0) +. transit;
    if not (Channel.settle ch l ~seq) then begin
      (* [settle] leaves the landing time in the cell for [arm_rexmit] *)
      (Event_queue.inbox t.queue).(0) <- cell.(0);
      Event_queue.push_inbox t.queue
        ~tag:(pack_seq ~kind:k_ack ~a:src ~b:dst ~seq)
        obj_unit;
      arm_rexmit t ch l ~src ~dst ~seq
    end
  end

(* Set the timer of the transmission just made, whose copies' latest
   landing time is in [copy_at] and whose timeout the channel left in
   its cell. The jitter is drawn where timers used to be pushed
   unconditionally, so the rng stream is unchanged. *)
let schedule_rexmit t ch l ~src ~dst ~seq =
  let cell = Channel.cell ch in
  let rto = cell.(0) in
  let cfg = Channel.config ch in
  let jitter =
    if cfg.Channel.jitter > 0.0 then
      rto *. cfg.Channel.jitter *. Rng.float t.net_rng 1.0
    else 0.0
  in
  let deadline = t.clock.(0) +. rto +. jitter in
  let armed = t.copy_at.(0) >= deadline in
  cell.(0) <- deadline;
  Channel.set_deadline ch l ~seq ~armed;
  if armed then begin
    (Event_queue.inbox t.queue).(0) <- deadline;
    push_rexmit t ~src ~dst ~seq
  end

let send_reliable t ch ~src ~dst msg =
  let l = Channel.link ch ~src ~dst in
  let payload = Obj.repr msg in
  let seq = Channel.register ch l payload in
  transmit_data t ~src ~dst ~seq payload;
  (* at-least-once physical channels: the first copy may be duplicated;
     the receiver-side dedup absorbs it like any retransmission *)
  if t.duplication > 0.0 && Rng.float t.net_rng 1.0 < t.duplication then begin
    let first = t.copy_at.(0) in
    transmit_data t ~src ~dst ~seq payload;
    if first > t.copy_at.(0) then t.copy_at.(0) <- first
  end;
  schedule_rexmit t ch l ~src ~dst ~seq

(* Count [count] protocol-level sends of [msg]: the classifier and
   the weigher run once for all of them. *)
let classify_send t msg ~count =
  (match t.classify with
  | None -> ()
  | Some is_data ->
    if is_data msg then t.data_sent <- t.data_sent + count
    else t.meta_sent <- t.meta_sent + count);
  match t.weigh with
  | None -> ()
  | Some units -> t.payload_units <- t.payload_units + (count * units msg)

(* One protocol-level send's transmission, after its accounting. *)
let transmit t ~src ~dst msg =
  match t.channel with
  | Some ch -> send_reliable t ch ~src ~dst msg
  | None ->
    if Link_faults.armed t.faults then send_raw_faulty t ~src ~dst msg
    else begin
      let transit = Delay.draw t.delay t.net_rng ~src ~dst in
      t.sent <- t.sent + 1;
      if t.trace_enabled then record t (Sent { time = t.clock.(0); src; dst });
      let tag = pack ~kind:k_deliver ~a:src ~b:dst in
      (Event_queue.inbox t.queue).(0) <- t.clock.(0) +. transit;
      Event_queue.push_inbox t.queue ~tag (Obj.repr msg);
      (* at-least-once channels: optionally deliver a duplicate copy at an
         independent delay (counted as its own send so traces stay
         coherent) *)
      if t.duplication > 0.0 && Rng.float t.net_rng 1.0 < t.duplication then begin
        let transit' = Delay.draw t.delay t.net_rng ~src ~dst in
        t.sent <- t.sent + 1;
        if t.trace_enabled then
          record t (Sent { time = t.clock.(0); src; dst });
        (Event_queue.inbox t.queue).(0) <- t.clock.(0) +. transit';
        Event_queue.push_inbox t.queue ~tag (Obj.repr msg)
      end
    end

let send ctx ~dst msg =
  let t = ctx.engine in
  check_pid t dst ~where:"Engine.send";
  classify_send t msg ~count:1;
  transmit t ~src:ctx.ctx_self ~dst msg

let send_many ctx ~dsts ~from ~upto msg =
  let t = ctx.engine in
  if from < 0 || upto > Array.length dsts then
    invalid_arg "Engine.send_many: range outside dsts";
  for i = from to upto - 1 do
    check_pid t dsts.(i) ~where:"Engine.send_many"
  done;
  if from < upto then begin
    classify_send t msg ~count:(upto - from);
    let src = ctx.ctx_self in
    for i = from to upto - 1 do
      transmit t ~src ~dst:dsts.(i) msg
    done
  end

let schedule_local ctx ~delay action =
  let t = ctx.engine in
  if delay < 0. then invalid_arg "Engine.schedule_local: negative delay";
  (Event_queue.inbox t.queue).(0) <- t.clock.(0) +. delay;
  Event_queue.push_inbox t.queue
    ~tag:(pack ~kind:k_local ~a:ctx.ctx_self ~b:0)
    (Obj.repr action)

let inject t ~at pid action =
  check_pid t pid ~where:"Engine.inject";
  let time = Float.max at t.clock.(0) in
  Event_queue.push_tagged t.queue ~time
    ~tag:(pack ~kind:k_injected ~a:pid ~b:0)
    (Obj.repr action)

let crash_at t pid at =
  check_pid t pid ~where:"Engine.crash_at";
  Event_queue.push_tagged t.queue ~time:(Float.max at t.clock.(0))
    ~tag:(pack ~kind:k_crash ~a:pid ~b:0)
    obj_unit

let restore_at t pid at =
  check_pid t pid ~where:"Engine.restore_at";
  Event_queue.push_tagged t.queue ~time:(Float.max at t.clock.(0))
    ~tag:(pack ~kind:k_restore ~a:pid ~b:0)
    obj_unit

let is_crashed t pid =
  check_pid t pid ~where:"Engine.is_crashed";
  t.processes.(pid).crashed

let channel_exn t =
  match t.channel with Some ch -> ch | None -> assert false

let dispatch t tag payload =
  t.executed <- t.executed + 1;
  let kind = tag_kind tag in
  if kind = k_deliver then begin
    let src = tag_a tag and dst = tag_b tag in
    let slot = t.processes.(dst) in
    if slot.crashed then begin
      t.dropped <- t.dropped + 1;
      if t.trace_enabled then record t (Dropped { time = t.clock.(0); src; dst })
    end
    else
      match slot.handler with
      | None ->
        t.dropped <- t.dropped + 1;
        if t.trace_enabled then
          record t (Dropped { time = t.clock.(0); src; dst })
      | Some handler ->
        t.delivered <- t.delivered + 1;
        if t.trace_enabled then
          record t (Delivered { time = t.clock.(0); src; dst });
        (match t.tap with
        | Some tap ->
          tap.tap_deliver ~time:t.clock.(0) ~src ~dst (Obj.obj payload : _)
        | None -> ());
        handler (ctx_of slot) ~src (Obj.obj payload : _)
  end
  else if kind = k_local then begin
    let owner = tag_a tag in
    if not t.processes.(owner).crashed then
      (Obj.obj payload : unit -> unit) ()
  end
  else if kind = k_injected then begin
    let owner = tag_a tag in
    let slot = t.processes.(owner) in
    if not slot.crashed then
      (Obj.obj payload : _ context -> unit) (ctx_of slot)
  end
  else if kind = k_crash then begin
    let pid = tag_a tag in
    if not t.processes.(pid).crashed then begin
      t.processes.(pid).crashed <- true;
      record t (Crashed { time = t.clock.(0); pid })
    end
  end
  else if kind = k_restore then begin
    let pid = tag_a tag in
    if t.processes.(pid).crashed then begin
      t.processes.(pid).crashed <- false;
      record t (Restored { time = t.clock.(0); pid })
    end
  end
  else if kind = k_control then (Obj.obj payload : unit -> unit) ()
  else if kind = k_data then begin
    (* a reliable-channel data packet arrived at dst *)
    let src = tag_a tag and dst = tag_b tag and seq = tag_seq tag in
    let slot = t.processes.(dst) in
    match slot.handler with
    | Some handler when not slot.crashed ->
      if t.trace_enabled then
        record t (Delivered { time = t.clock.(0); src; dst });
      let ch = channel_exn t in
      let l = Channel.link ch ~src ~dst in
      (* ack before running the handler so the ack's delay draw is not
         interleaved with the handler's own sends *)
      transmit_ack t ch l ~src ~dst ~seq;
      (match Channel.receive ch l ~seq with
      | `Duplicate -> ()
      | `Fresh ->
        t.delivered <- t.delivered + 1;
        (match t.tap with
        | Some tap ->
          tap.tap_deliver ~time:t.clock.(0) ~src ~dst (Obj.obj payload : _)
        | None -> ());
        handler (ctx_of slot) ~src (Obj.obj payload : _))
    | Some _ | None ->
      (* no ack: the sender's retransmissions keep probing, so a message
         in flight to a crashed-then-restored process is eventually
         delivered — the channel rides out the crash window *)
      t.dropped <- t.dropped + 1;
      if t.trace_enabled then
        record t (Dropped { time = t.clock.(0); src; dst });
      let ch = channel_exn t in
      (Channel.cell ch).(0) <- Float.infinity;
      arm_rexmit t ch (Channel.link ch ~src ~dst) ~src ~dst ~seq
  end
  else if kind = k_ack then begin
    (* a late ack landed (accounted at its transmission); the tag holds
       the data direction *)
    let ch = channel_exn t in
    Channel.ack ch (Channel.link ch ~src:(tag_a tag) ~dst:(tag_b tag))
      ~seq:(tag_seq tag)
  end
  else begin
    (* k_rexmit: an armed retransmission timer *)
    let src = tag_a tag and dst = tag_b tag and seq = tag_seq tag in
    let ch = channel_exn t in
    let l = Channel.link ch ~src ~dst in
    match Channel.on_timer ch l ~seq with
    | `Done | `Give_up -> ()
    | `Retransmit ->
      transmit_data t ~src ~dst ~seq (Channel.payload l ~seq);
      schedule_rexmit t ch l ~src ~dst ~seq
  end

(* The one pop-and-dispatch path: the earliest event leaves the queue,
   the clock moves to its time and the event runs. The caller checks
   the queue is non-empty. Pushes are clamped to the clock, so no
   queued time lies behind it; the [>] test keeps the clock monotone
   regardless. *)
let pop_dispatch t =
  let queue = t.queue in
  let time = (Event_queue.unsafe_times queue).(0) in
  let tag = (Event_queue.unsafe_tags queue).(0) in
  let payload = Event_queue.pop_exn queue in
  if time > t.clock.(0) then t.clock.(0) <- time;
  dispatch t tag payload

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    pop_dispatch t;
    true
  end

let run ?until ?(max_events = 10_000_000) t =
  let queue = t.queue in
  (* hoist the horizon out of the option so the per-event check is one
     float comparison instead of a pattern match *)
  let horizon = match until with Some h -> h | None -> Float.infinity in
  let executed = ref 0 in
  (* the head cell is stable; pushes and pops keep its contents current *)
  let head = Event_queue.unsafe_times queue in
  while (not (Event_queue.is_empty queue)) && head.(0) <= horizon do
    incr executed;
    if !executed > max_events then raise (Event_limit_exceeded max_events);
    pop_dispatch t
  done;
  (* Simulated time covers the whole requested interval even when the
     queue ran dry (or the next event lies beyond the horizon) before
     reaching it — otherwise latency measurements against [now] would
     be skewed by however far the clock lagged behind [until]. *)
  match until with
  | Some horizon when horizon > t.clock.(0) -> t.clock.(0) <- horizon
  | Some _ | None -> ()

let pending_events t = Event_queue.size t.queue
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_lost t = t.lost
let events_executed t = t.executed
let messages_data t = t.data_sent
let messages_meta t = t.meta_sent
let payload_units t = t.payload_units
let acks_sent t = t.acks_sent

let retransmissions t =
  match t.channel with Some ch -> Channel.retransmissions ch | None -> 0

let duplicates_suppressed t =
  match t.channel with Some ch -> Channel.duplicates_suppressed ch | None -> 0

let sends_abandoned t =
  match t.channel with Some ch -> Channel.abandoned ch | None -> 0

let channel_in_flight t =
  match t.channel with Some ch -> Channel.in_flight ch | None -> 0

let reliable_transport t = Option.is_some t.channel

let trace_events t = Array.to_list (Array.sub t.trace 0 t.trace_len)

let pp_links ~name ppf links =
  Format.fprintf ppf "[";
  List.iteri
    (fun i (a, b) ->
      if i > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%s->%s" (name a) (name b))
    links;
  Format.fprintf ppf "]"

let pp_event ~name ppf = function
  | Sent { time; src; dst } ->
    Format.fprintf ppf "%.3f  %s -> %s  sent" time (name src) (name dst)
  | Delivered { time; src; dst } ->
    Format.fprintf ppf "%.3f  %s -> %s  delivered" time (name src) (name dst)
  | Dropped { time; src; dst } ->
    Format.fprintf ppf "%.3f  %s -> %s  dropped (dst crashed)" time (name src)
      (name dst)
  | Lost { time; src; dst } ->
    Format.fprintf ppf "%.3f  %s -> %s  lost (link fault)" time (name src)
      (name dst)
  | Crashed { time; pid } ->
    Format.fprintf ppf "%.3f  %s  CRASH" time (name pid)
  | Restored { time; pid } ->
    Format.fprintf ppf "%.3f  %s  RESTORED" time (name pid)
  | PartitionStart { time; links } ->
    Format.fprintf ppf "%.3f  PARTITION start (%d links) %a" time
      (List.length links) (pp_links ~name) links
  | PartitionHeal { time; links } ->
    Format.fprintf ppf "%.3f  PARTITION heal (%d links) %a" time
      (List.length links) (pp_links ~name) links
