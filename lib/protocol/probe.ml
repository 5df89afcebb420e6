type event =
  | Registered of { rid : int; server : int; time : float }
  | Unregistered of { rid : int; server : int; time : float }
  | Relayed of { rid : int; server : int; tag : Tag.t; time : float }
  | Stored of { server : int; tag : Tag.t; time : float }
  | Gc of { server : int; tag : Tag.t; time : float }
  | Repair_started of { server : int; time : float }
  | Repaired of { server : int; tag : Tag.t; time : float }
  | Crash_injected of { server : int; time : float }
  | Rot_injected of { server : int; time : float }
  | Suspected of { target : int; by : int; time : float }
  | Auto_repair of { server : int; time : float }
  | Rot_detected of { server : int; time : float }
  | Scrub_repaired of { server : int; tag : Tag.t; time : float }

(* [log] is [None] until a consumer calls [record], so a probe nobody
   reads is two words that never grow, and [emit] drops the event *)
type t = { mutable log : log option }
and log = { mutable rev_events : event list }

let create () = { log = None }

let record t =
  match t.log with
  | None -> t.log <- Some { rev_events = [] }
  | Some _ -> ()

let emit t e =
  match t.log with
  | None -> ()
  | Some l -> l.rev_events <- e :: l.rev_events

let events t =
  match t.log with
  | Some l -> List.rev l.rev_events
  | None -> invalid_arg "Probe: the probe is not recording (see Probe.record)"

let registration_window ?(is_crashed = fun _ -> false) t ~rid =
  let t1 = ref infinity and t2 = ref neg_infinity in
  let pending = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Registered { rid = r; server; time } when r = rid ->
        if time < !t1 then t1 := time;
        Hashtbl.replace pending server ()
      | Unregistered { rid = r; server; time } when r = rid ->
        Hashtbl.remove pending server;
        if time > !t2 then t2 := time
      | Registered _ | Unregistered _ | Relayed _ | Stored _ | Gc _
      | Repair_started _ | Repaired _ | Crash_injected _ | Rot_injected _
      | Suspected _ | Auto_repair _ | Rot_detected _ | Scrub_repaired _ ->
        ())
    (events t);
  let alive_pending =
    Hashtbl.fold
      (fun server () acc -> if is_crashed server then acc else acc + 1)
      pending 0
  in
  if !t1 = infinity then None
  else if alive_pending > 0 then Some (!t1, infinity)
  else Some (!t1, Float.max !t1 !t2)

let relays_of t ~rid =
  List.fold_left
    (fun acc e ->
      match e with
      | Relayed { rid = r; _ } when r = rid -> acc + 1
      | Registered _ | Unregistered _ | Relayed _ | Stored _ | Gc _
      | Repair_started _ | Repaired _ | Crash_injected _ | Rot_injected _
      | Suspected _ | Auto_repair _ | Rot_detected _ | Scrub_repaired _ ->
        acc)
    0 (events t)

let registrations_balanced t ~crashed =
  (* (rid, server) pairs currently registered and not yet unregistered *)
  let open_regs = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match e with
      | Registered { rid; server; _ } -> Hashtbl.replace open_regs (rid, server) ()
      | Unregistered { rid; server; _ } -> Hashtbl.remove open_regs (rid, server)
      | Relayed _ | Stored _ | Gc _ | Repair_started _ | Repaired _
      | Crash_injected _ | Rot_injected _ | Suspected _ | Auto_repair _
      | Rot_detected _ | Scrub_repaired _ ->
        ())
    (events t);
  Hashtbl.fold
    (fun (_, server) () acc -> acc && crashed server)
    open_regs true

let time_of = function
  | Registered { time; _ }
  | Unregistered { time; _ }
  | Relayed { time; _ }
  | Stored { time; _ }
  | Gc { time; _ }
  | Repair_started { time; _ }
  | Repaired { time; _ }
  | Crash_injected { time; _ }
  | Rot_injected { time; _ }
  | Suspected { time; _ }
  | Auto_repair { time; _ }
  | Rot_detected { time; _ }
  | Scrub_repaired { time; _ } ->
    time

(* Every probe but [Crash_injected] is stamped with its emission time,
   and [Crash_injected] with the crash's, which a caller may schedule
   ahead: the stable sort puts it where the crash happens. *)
let chronological t =
  List.stable_sort
    (fun a b -> Float.compare (time_of a) (time_of b))
    (events t)

let heal_causality t =
  (* a server is crashed from its [Crash_injected] to its next
     [Repair_started]; the flag records whether some detector has
     suspected it since the crash *)
  let crashed : (int, bool ref) Hashtbl.t = Hashtbl.create 8 in
  let exception Bad of string in
  let live index server what =
    if Hashtbl.mem crashed server then
      raise
        (Bad (Printf.sprintf "probe #%d: crashed server %d %s" index server what))
  in
  try
    List.iteri
      (fun index e ->
        match e with
        | Crash_injected { server; _ } ->
          if not (Hashtbl.mem crashed server) then
            Hashtbl.add crashed server (ref false)
        | Repair_started { server; _ } -> Hashtbl.remove crashed server
        | Suspected { target; by; _ } -> (
          live index by "voiced a suspicion";
          match Hashtbl.find_opt crashed target with
          | Some suspected -> suspected := true
          | None -> ())
        | Rot_detected { server; _ } -> live index server "detected rot"
        | Scrub_repaired { server; _ } | Repaired { server; _ } ->
          live index server "reported a heal"
        | Auto_repair { server; _ } -> (
          match Hashtbl.find_opt crashed server with
          | None ->
            raise
              (Bad
                 (Printf.sprintf "probe #%d: auto-repair of live server %d"
                    index server))
          | Some { contents = false } ->
            raise
              (Bad
                 (Printf.sprintf
                    "probe #%d: auto-repair of server %d without a suspicion \
                     since its crash"
                    index server))
          | Some { contents = true } -> ())
        | Registered _ | Unregistered _ | Relayed _ | Stored _ | Gc _
        | Rot_injected _ ->
          ())
      (chronological t);
    Ok ()
  with Bad what -> Error what
