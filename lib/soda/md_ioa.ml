module Engine = Simnet.Engine
module Params = Protocol.Params
module Tag = Protocol.Tag
module Mds = Erasure.Mds
module Fragment = Erasure.Fragment

(* the fields are never projected individually: a [mid] is an identity,
   compared and hashed structurally as a Hashtbl key *)
type mid = { origin : int; seq : int } [@@warning "-69"]

type payload =
  | Full of Tag.t * bytes
  | Coded of Tag.t * Fragment.t

type msg = { mid : mid; payload : payload }

let payload_bytes = function
  | Full (_, v) -> Bytes.length v
  | Coded (_, c) -> Fragment.size c

type status = Sending | Ready | Delivered

(* MD-VALUE-SERVER_s state (Fig. 2). [outQueue] and [content] are per
   message-id, as in the figure. *)
type server_state = {
  index : int;
  status : (mid, status) Hashtbl.t;
  content : (mid, Tag.t * Fragment.t) Hashtbl.t;
  out_queue : (mid, (int * payload) Queue.t) Hashtbl.t
}

(* MD-VALUE-SENDER_p state (Fig. 1). *)
type sender_state = {
  mutable active : bool;
  mutable m_count : int;
  mutable curr_tag : Tag.t option;
  send_buff : (int * msg) Queue.t (* (destination server index, message) *)
}

type delivery = { server : int; tag : Tag.t; fragment : Fragment.t }

type t = {
  engine : msg Engine.t;
  params : Params.t;
  code : Mds.t;
  step : float;
  sender_pid : int;
  server_pids : int array;
  sender : sender_state;
  servers : server_state array;
  mutable deliveries_rev : delivery list;
  mutable acked_rev : Tag.t list
}

let d_size t = Params.f t.params + 1

(* ------------------------------------------------------------------ *)
(* Sender (Fig. 1) *)

(* Output action send((mID, (t, v), "full"))_{p,s}: emit the head of
   send_buff; one action per [step]. *)
let rec sender_pump t ctx =
  if Queue.is_empty t.sender.send_buff then begin
    (* Output md-value-send-ack: precondition active && send_buff = [] *)
    if t.sender.active then begin
      t.sender.active <- false;
      (match t.sender.curr_tag with
      | Some tag -> t.acked_rev <- tag :: t.acked_rev
      | None -> ());
      t.sender.curr_tag <- None
    end
  end
  else begin
    let dst_index, message = Queue.pop t.sender.send_buff in
    Engine.send ctx ~dst:t.server_pids.(dst_index) message;
    Engine.schedule_local ctx ~delay:t.step (fun () -> sender_pump t ctx)
  end

(* Input action md-value-send(t, v)_p. *)
let sender_input t ctx ~tag ~value =
  t.sender.m_count <- t.sender.m_count + 1;
  let mid = { origin = Engine.self ctx; seq = t.sender.m_count } in
  for i = 0 to d_size t - 1 do
    Queue.push (i, { mid; payload = Full (tag, value) }) t.sender.send_buff
  done;
  t.sender.active <- true;
  t.sender.curr_tag <- Some tag;
  sender_pump t ctx

(* ------------------------------------------------------------------ *)
(* Server (Fig. 2) *)

let server_status s mid =
  Hashtbl.find_opt s.status mid

(* Output md-value-deliver(t, c)_s: precondition status(mID) = ready.
   Effect: status <- delivered; content(mID) <- bottom. *)
let try_deliver t s mid =
  match server_status s mid with
  | Some Ready ->
    (match Hashtbl.find_opt s.content mid with
    | Some (tag, fragment) ->
      Hashtbl.replace s.status mid Delivered;
      Hashtbl.remove s.content mid;
      t.deliveries_rev <- { server = s.index; tag; fragment } :: t.deliveries_rev
    | None -> ())
  | Some (Sending | Delivered) | None -> ()

(* Output send((mID, (t, u)))_{s,s'}: emit the head of outQueue(mID);
   when the queue empties, status(mID) <- ready (Fig. 2, lines 33-40). *)
let rec server_pump t s ctx mid =
  match Hashtbl.find_opt s.out_queue mid with
  | None -> ()
  | Some queue ->
    if Queue.is_empty queue then begin
      Hashtbl.remove s.out_queue mid;
      (match server_status s mid with
      | Some Sending -> Hashtbl.replace s.status mid Ready
      | Some (Ready | Delivered) | None -> ());
      try_deliver t s mid
    end
    else begin
      let dst_index, payload = Queue.pop queue in
      Engine.send ctx ~dst:t.server_pids.(dst_index) { mid; payload };
      Engine.schedule_local ctx ~delay:t.step (fun () -> server_pump t s ctx mid)
    end

(* Input recv((mID, (t, v), "full"))_{r,s} (Fig. 2, lines 16-26). *)
let server_recv_full t s ctx mid tag value =
  if Option.is_none (server_status s mid) then begin
    let fragments = Mds.encode t.code value in
    let queue = Queue.create () in
    (* forward the full value to the rest of D *)
    for j = s.index + 1 to d_size t - 1 do
      Queue.push (j, Full (tag, value)) queue
    done;
    (* coded elements to everyone outside D *)
    for j = d_size t to Params.n t.params - 1 do
      Queue.push (j, Coded (tag, fragments.(j))) queue
    done;
    Hashtbl.replace s.out_queue mid queue;
    Hashtbl.replace s.status mid Sending;
    Hashtbl.replace s.content mid (tag, fragments.(s.index));
    server_pump t s ctx mid
  end

(* Input recv((mID, (t, c), "coded"))_{r,s} (Fig. 2, lines 27-32). *)
let server_recv_coded t s _ctx mid tag fragment =
  match server_status s mid with
  | Some Delivered -> ()
  | Some (Sending | Ready) | None ->
    Hashtbl.replace s.status mid Ready;
    Hashtbl.replace s.content mid (tag, fragment);
    try_deliver t s mid

(* ------------------------------------------------------------------ *)
(* Deployment *)

let deploy ~engine ~params ?(step = 0.5) () =
  let n = Params.n params in
  let sender_pid = Engine.reserve engine ~name:"md-sender" in
  let server_pids =
    Array.init n (fun i ->
        Engine.reserve engine ~name:(Printf.sprintf "md-server%d" i))
  in
  let t =
    { engine;
      params;
      code = Mds.rs_bch ~n ~k:(Params.k_soda params);
      step;
      sender_pid;
      server_pids;
      sender =
        { active = false;
          m_count = 0;
          curr_tag = None;
          send_buff = Queue.create ()
        };
      servers =
        Array.init n (fun index ->
            { index;
              status = Hashtbl.create 8;
              content = Hashtbl.create 8;
              out_queue = Hashtbl.create 8
            });
      deliveries_rev = [];
      acked_rev = []
    }
  in
  (* the sender receives nothing in this standalone primitive *)
  Engine.set_handler engine sender_pid (fun _ ~src:_ _ -> ());
  Array.iteri
    (fun i pid ->
      let s = t.servers.(i) in
      Engine.set_handler engine pid (fun ctx ~src:_ { mid; payload } ->
          match payload with
          | Full (tag, value) -> server_recv_full t s ctx mid tag value
          | Coded (tag, fragment) -> server_recv_coded t s ctx mid tag fragment))
    server_pids;
  t

let send t ~at ~tag ~value =
  Engine.inject t.engine ~at t.sender_pid (fun ctx ->
      sender_input t ctx ~tag ~value)

let crash_sender t ~at = Engine.crash_at t.engine t.sender_pid at
let crash_server t ~index ~at = Engine.crash_at t.engine t.server_pids.(index) at
let deliveries t = List.rev t.deliveries_rev
let acked t = List.rev t.acked_rev

let[@lint.allow
     "D3: both folds are commutative byte sums — iteration order cannot \
      change the result"] server_retained_payloads t ~index =
  let s = t.servers.(index) in
  let in_content =
    Hashtbl.fold (fun _ (_, c) acc -> acc + Fragment.size c) s.content 0
  in
  let in_queues =
    Hashtbl.fold
      (fun _ queue acc ->
        Queue.fold (fun acc (_, p) -> acc + payload_bytes p) acc queue)
      s.out_queue 0
  in
  in_content + in_queues

let sender_retained_payloads t =
  Queue.fold
    (fun acc (_, { payload; _ }) -> acc + payload_bytes payload)
    0 t.sender.send_buff
