module Engine = Simnet.Engine
module History = Protocol.History
module Cost = Protocol.Cost
module Votes = Protocol.Int_tbl.Set

module type S = sig
  type t

  val write :
    t -> writer:int -> at:float -> ?on_done:(unit -> unit) -> bytes -> unit

  val read :
    t -> reader:int -> at:float -> ?on_done:(bytes -> unit) -> unit -> unit

  val crash_server : t -> coordinate:int -> at:float -> unit
  val server_pid : t -> coordinate:int -> int
  val history : t -> History.t
  val cost : t -> Cost.t
  val initial_value : t -> bytes
end

type 'msg handler = 'msg Engine.context -> src:Engine.pid -> 'msg -> unit

let reserve engine ~name count =
  Array.init count (fun i ->
      Engine.reserve engine ~name:(Printf.sprintf "%s%d" name i))

let cost ~initial_value value_len =
  let default = match Bytes.length initial_value with 0 -> 1024 | l -> l in
  Cost.create ~value_len:(Option.value value_len ~default)

let broadcast ctx pids msg =
  Array.iter (fun dst -> Engine.send ctx ~dst msg) pids

(* ------------------------------------------------------------------ *)
(* Clients and their quorums *)

type ('phase, 'result) client = {
  history : History.t;
  votes : Votes.t;  (* distinct senders heard from in the current phase *)
  mutable phase : 'phase option;
  mutable on_done : ('result -> unit) option
}

let phase c = c.phase

let enter c phase =
  Votes.reset c.votes;
  c.phase <- Some phase

let vote c src = Votes.add c.votes src
let count c = Votes.length c.votes

let tally c src =
  ignore (vote c src : bool);
  count c

let respond c ctx ~op result =
  History.respond c.history ~op ~at:(Engine.now_ctx ctx);
  c.phase <- None;
  match c.on_done with
  | Some callback ->
    c.on_done <- None;
    callback result
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Deployment *)

type ('msg, 'config, 'wphase, 'rphase) t = {
  engine : 'msg Engine.t;
  name : string;
  config : 'config;
  history : History.t;
  servers : Engine.pid array;
  writers : ('wphase, unit) client array;
  writer_pids : Engine.pid array;
  readers : ('rphase, bytes) client array;
  reader_pids : Engine.pid array;
  start_write :
    ('wphase, unit) client -> 'msg Engine.context -> op:int -> bytes -> unit;
  start_read : ('rphase, bytes) client -> 'msg Engine.context -> op:int -> unit
}

let clients engine ~name ~history count handler =
  let pids = reserve engine ~name count in
  let clients =
    Array.init count (fun _ ->
        { history; votes = Votes.create 8; phase = None; on_done = None })
  in
  Array.iteri
    (fun i pid -> Engine.set_handler engine pid (handler clients.(i)))
    pids;
  (clients, pids)

let deploy ~engine ~name ~config ~history ~servers ~server ~num_writers ~writer
    ~start_write ~num_readers ~reader ~start_read =
  Array.iteri (fun i pid -> Engine.set_handler engine pid (server i)) servers;
  let writers, writer_pids =
    clients engine ~name:(name ^ "-writer") ~history num_writers writer
  in
  let readers, reader_pids =
    clients engine ~name:(name ^ "-reader") ~history num_readers reader
  in
  { engine; name; config; history; servers; writers; writer_pids; readers;
    reader_pids; start_write; start_read
  }

(* The busy check and the history record every operation starts with. *)
let invoke (t : _ t) c ctx ~role ~kind on_done =
  if Option.is_some c.phase then
    invalid_arg
      (Printf.sprintf "%s.%s.invoke: busy"
         (String.capitalize_ascii t.name)
         role);
  let op =
    History.invoke t.history ~client:(Engine.self ctx) ~kind
      ~at:(Engine.now_ctx ctx)
  in
  c.on_done <- on_done;
  op

let write t ~writer ~at ?on_done value =
  Engine.inject t.engine ~at t.writer_pids.(writer) (fun ctx ->
      let c = t.writers.(writer) in
      let op = invoke t c ctx ~role:"Writer" ~kind:History.Write on_done in
      History.set_value t.history ~op value;
      t.start_write c ctx ~op value)

let read t ~reader ~at ?on_done () =
  Engine.inject t.engine ~at t.reader_pids.(reader) (fun ctx ->
      let c = t.readers.(reader) in
      let op = invoke t c ctx ~role:"Reader" ~kind:History.Read on_done in
      t.start_read c ctx ~op)

let crash_server t ~coordinate ~at =
  Engine.crash_at t.engine t.servers.(coordinate) at

let server_pid t ~coordinate = t.servers.(coordinate)
let config t = t.config
let history (t : _ t) = t.history
