module Engine = Simnet.Engine

type ('e, 'r) frames = {
  live : server:int -> 'e -> bool;
  direct : 'r -> Messages.t;
  envelope : 'e list -> 'r -> Messages.t;
  gossip : 'e list -> Messages.t;
  batch : 'r list -> Messages.t
}

(* Pending gossip for one destination server: (enqueue time, entry),
   newest first, plus the staleness-timer armed flag. Enqueue times let
   the flush tell entries that have genuinely aged out from young riders
   — see [flush_outbox]. *)
type 'e outbox = {
  mutable entries : (float * 'e) list;
  mutable armed : bool
}

(* Buffered relays for one destination client, newest first. *)
type 'r relay_box = { mutable items : 'r list; mutable rarmed : bool }

(* The plane state of one server process. *)
type ('e, 'r) proc = {
  server : int;  (* this process's slot *)
  outbox : 'e outbox array;  (* server slot -> pending gossip *)
  relays : 'r relay_box array  (* client slot - servers -> buffered relays *)
}

(* Slot [s] is pid [first + s]: the server processes hold slots
   [0, servers), the client processes the [clients] slots above. *)
type ('e, 'r) t = {
  frames : ('e, 'r) frames;
  first : int;
  servers : int;
  clients : int;
  window : float option;
  procs : ('e, 'r) proc array
}

let create ~frames ~servers ~clients ~window =
  if Array.length servers = 0 then invalid_arg "Plane.create: no servers";
  let first = servers.(0) in
  Array.iteri
    (fun s pid ->
      if pid <> first + s then invalid_arg "Plane.create: pids not contiguous")
    (Array.append servers clients);
  let servers = Array.length servers and clients = Array.length clients in
  { frames;
    first;
    servers;
    clients;
    window;
    procs =
      Array.init servers (fun server ->
          { server;
            outbox = Array.init servers (fun _ -> { entries = []; armed = false });
            relays = Array.init clients (fun _ -> { items = []; rarmed = false })
          })
  }

let is_relay = function Messages.Relay _ -> true | _ -> false

(* Drain server slot [dst]'s outbox, dropping dead entries, in enqueue
   order. *)
let take t proc ~dst =
  let box = proc.outbox.(dst) in
  match box.entries with
  | [] -> []
  | pending ->
    box.entries <- [];
    (* newest first in, oldest first out *)
    List.fold_left
      (fun acc (_, e) ->
        if t.frames.live ~server:proc.server e then e :: acc else acc)
      [] pending

(* Bounded-staleness flush of one destination's outbox. The box holds
   entries of many ages, so the timer only forces a frame once the
   {e oldest} live entry has waited the full staleness bound — younger
   entries coalesce into that frame (or into envelope piggybacks) for
   free, but never cause frames of their own earlier than the bound.
   Most entries die (their read completes) before aging out. *)
let rec flush_outbox t proc ctx ~dst =
  let box = proc.outbox.(dst) in
  box.armed <- false;
  let live =
    List.filter (fun (_, e) -> t.frames.live ~server:proc.server e) box.entries
  in
  box.entries <- live;
  match List.rev live with
  | [] -> ()
  | (oldest, _) :: _ as in_order ->
    let now = Engine.now_ctx ctx in
    if now -. oldest +. 1e-9 >= Config.gossip_staleness then begin
      box.entries <- [];
      Engine.send ctx ~dst:(t.first + dst)
        (t.frames.gossip (List.map snd in_order))
    end
    else begin
      box.armed <- true;
      Engine.schedule_local ctx
        ~delay:(oldest +. Config.gossip_staleness -. now)
        (fun () -> flush_outbox t proc ctx ~dst)
    end

(* Close a client's relay window. Whatever happened to the relays'
   reads meanwhile, they leave: each was already counted in H and
   gossiped, so it must reach the reader even if the read was
   unregistered since. *)
let flush_relays t proc ctx ~client =
  let box = proc.relays.(client) in
  box.rarmed <- false;
  let dst = t.first + t.servers + client in
  match List.rev box.items with
  | [] -> ()
  | [ item ] ->
    box.items <- [];
    Engine.send ctx ~dst (t.frames.direct item)
  | items ->
    box.items <- [];
    Engine.send ctx ~dst (t.frames.batch items)

let send t ctx ~dst ~relay item =
  let src = Engine.self ctx - t.first in
  if src < 0 || src >= t.servers then Engine.send ctx ~dst (t.frames.direct item)
  else begin
    let proc = t.procs.(src) in
    let d = dst - t.first in
    if d >= 0 && d < t.servers then
      (* server -> server: piggyback whatever gossip is pending for the
         destination *)
      match take t proc ~dst:d with
      | [] -> Engine.send ctx ~dst (t.frames.direct item)
      | entries -> Engine.send ctx ~dst (t.frames.envelope entries item)
    else
      let client = d - t.servers in
      match t.window with
      | Some w when relay && client >= 0 && client < t.clients ->
        (* server -> reader data: hold for the relay window *)
        let box = proc.relays.(client) in
        box.items <- item :: box.items;
        if not box.rarmed then begin
          box.rarmed <- true;
          Engine.schedule_local ctx ~delay:w (fun () ->
              flush_relays t proc ctx ~client)
        end
      | Some _ | None -> Engine.send ctx ~dst (t.frames.direct item)
  end

let gossip t ctx ~peers entry =
  (* only a server gossips, and it runs on a server slot *)
  let src = Engine.self ctx in
  let proc = t.procs.(src - t.first) in
  (* one (enqueue time, entry) pair, shared by every peer's outbox *)
  let item = (Engine.now_ctx ctx, entry) in
  for i = 0 to Array.length peers - 1 do
    let dst = peers.(i) in
    if dst <> src then begin
      let d = dst - t.first in
      let box = proc.outbox.(d) in
      box.entries <- item :: box.entries;
      if not box.armed then begin
        box.armed <- true;
        Engine.schedule_local ctx ~delay:Config.gossip_staleness (fun () ->
            flush_outbox t proc ctx ~dst:d)
      end
    end
  done

let reset t ~server =
  let proc = t.procs.(server) in
  Array.iter
    (fun box ->
      box.entries <- [];
      box.armed <- false)
    proc.outbox;
  Array.iter
    (fun box ->
      box.items <- [];
      box.rarmed <- false)
    proc.relays
