module Params = Protocol.Params
module Rng = Simnet.Rng

type event =
  | Crash of { coordinate : int; at : float }
  | Repair of { coordinate : int; at : float }
  | Partition of { coordinates : int list; at : float }
  | Heal of { coordinates : int list; at : float }
  | BitRot of { coordinate : int; at : float }

type t = event list

let time_of = function
  | Crash { at; _ } | Repair { at; _ } | Partition { at; _ } | Heal { at; _ }
  | BitRot { at; _ } ->
    at

(* Both generators share the interval machinery: per server, random
   exponential uptime/downtime windows; a sweep accepts an interval only
   while fewer than f accepted intervals overlap its start, enforcing
   the <= f budget at every instant. [kind_of] then decides what fault
   an accepted interval materialises as. *)
let generate_intervals ~params ~seed ~horizon ~mean_downtime ~min_downtime
    ~kind_of =
  if horizon <= 0. then invalid_arg "Nemesis.generate: non-positive horizon";
  let n = Params.n params and f = Params.f params in
  let mean_uptime = horizon /. 3.0 in
  let rng = Rng.create seed in
  let candidates = ref [] in
  for coordinate = 0 to n - 1 do
    let t = ref (Rng.exponential rng ~mean:mean_uptime) in
    while !t < horizon do
      let down = min_downtime +. Rng.exponential rng ~mean:mean_downtime in
      candidates := (coordinate, !t, !t +. down) :: !candidates;
      t := !t +. down +. 1.0 +. Rng.exponential rng ~mean:mean_uptime
    done
  done;
  let by_start (_, s1, _) (_, s2, _) = Float.compare s1 s2 in
  let sorted = List.sort by_start !candidates in
  (* accept an interval only if fewer than f accepted intervals overlap
     its start *)
  let accepted = ref [] in
  List.iter
    (fun (coordinate, start, stop) ->
      let down_at_start =
        List.length
          (List.filter (fun (_, s, e) -> s <= start && start < e) !accepted)
      in
      if down_at_start < f then accepted := (coordinate, start, stop) :: !accepted)
    sorted;
  let events =
    List.concat_map
      (fun (coordinate, start, stop) -> kind_of ~coordinate ~start ~stop)
      !accepted
  in
  List.sort (fun a b -> Float.compare (time_of a) (time_of b)) events

let generate ~params ~seed ~horizon =
  generate_intervals ~params ~seed ~horizon ~mean_downtime:(horizon /. 10.0)
    ~min_downtime:1.0 ~kind_of:(fun ~coordinate ~start ~stop ->
      [ Crash { coordinate; at = start }; Repair { coordinate; at = stop } ])

let generate_mixed ~params ~seed ~horizon ?(mean_downtime = horizon /. 10.0)
    ?(partition_fraction = 0.5) () =
  if partition_fraction < 0.0 || partition_fraction > 1.0 then
    invalid_arg "Nemesis.generate_mixed: partition_fraction outside [0, 1]";
  (* a dedicated stream for the crash-vs-partition coin so the interval
     layout matches [generate] at the same seed *)
  let coin = Rng.create (seed lxor 0x5DEECE66D) in
  generate_intervals ~params ~seed ~horizon ~mean_downtime ~min_downtime:1.0
    ~kind_of:(fun ~coordinate ~start ~stop ->
      if Rng.float coin 1.0 < partition_fraction then
        [ Partition { coordinates = [ coordinate ]; at = start };
          Heal { coordinates = [ coordinate ]; at = stop }
        ]
      else [ Crash { coordinate; at = start }; Repair { coordinate; at = stop } ])

(* Crashes with no matching Repair: the detector/auto-repair plane is
   expected to bring the victim back on its own. The interval still
   reserves fault budget for the whole assumed-down window, which must
   cover suspicion (35) + a heartbeat period (10) + repair under load —
   hence the high minimum downtime; a second crash of the same server
   inside one window would race its own autonomous repair. *)
let generate_crash_only ~params ~seed ~horizon =
  generate_intervals ~params ~seed ~horizon ~mean_downtime:60.0
    ~min_downtime:90.0 ~kind_of:(fun ~coordinate ~start ~stop:_ ->
      [ Crash { coordinate; at = start } ])

(* Silent corruption events. A rotted element is unavailable exactly
   like a crashed one until the scrubber heals it (the server withholds
   the quarantined fragment rather than relay garbage), so rot windows
   draw on the same <= f budget: the interval models the assumed
   detect-and-heal window (scrub period 50 + targeted repair slack). *)
let generate_bitrot ~params ~seed ~horizon =
  generate_intervals ~params ~seed ~horizon ~mean_downtime:40.0
    ~min_downtime:120.0 ~kind_of:(fun ~coordinate ~start ~stop:_ ->
      [ BitRot { coordinate; at = start } ])

(* Applying a schedule at its literal timestamps can silently exceed the
   fault budget: the schedule's Repair event only restores the process,
   while the protocol-level repair (the state transfer rebuilding the
   wiped element) takes longer under load and loss — and a server is as
   good as faulty until it completes. Crash the next victim while a
   previous one is still rebuilding and more than f elements can be
   empty at once; with k = n - f that destroys committed data beyond
   what any algorithm could recover (it is not a protocol bug, it is
   budget-exceeding data loss). So the gated driver walks the schedule
   as an event chain, shifting everything by the accumulated delay, and
   holds each Crash back (re-checking every 7 time units) until the
   system reports no repair in flight — the discipline a real operator,
   or a Jepsen-style nemesis, follows before taking the next machine
   down. Fully deterministic: the gate reads simulation state only. *)
let drive_gated ~engine ~repairing ~apply t =
  let module Engine = Simnet.Engine in
  let poll = 7.0 in
  let pid = Engine.reserve engine ~name:"nemesis" in
  let rec schedule ~shift = function
    | [] -> ()
    | ev :: rest ->
      let at = Float.max (time_of ev +. shift) (Engine.now engine) in
      Engine.inject engine ~at pid (fun _ctx -> attempt ~shift ev rest)
  and attempt ~shift ev rest =
    match ev with
    | Crash _ when repairing () ->
      Engine.inject engine
        ~at:(Engine.now engine +. poll)
        pid
        (fun _ctx -> attempt ~shift:(shift +. poll) ev rest)
    | Crash _ | Repair _ | Partition _ | Heal _ | BitRot _ ->
      (* BitRot is never gated: rot does not wipe an element (the data
         is still decodable from the other n-1 stores), so it cannot
         push the effective erasure count past the budget by itself *)
      apply ~at:(Engine.now engine) ev;
      schedule ~shift rest
  in
  schedule ~shift:0.0 t

let apply_gated t deployment =
  drive_gated
    ~engine:(Soda.Deployment.engine deployment)
    ~repairing:(fun () -> Soda.Deployment.repairing deployment)
    ~apply:(fun ~at -> function
      | Crash { coordinate; _ } ->
        Soda.Deployment.crash_server deployment ~coordinate ~at
      | Repair { coordinate; _ } ->
        ignore (Soda.Deployment.repair_server deployment ~coordinate ~at)
      | Partition { coordinates; _ } ->
        Soda.Deployment.partition_servers deployment ~coordinates ~at
      | Heal { coordinates; _ } ->
        Soda.Deployment.heal_servers deployment ~coordinates ~at
      | BitRot { coordinate; _ } ->
        Soda.Deployment.corrupt_server deployment ~coordinate ~at)
    t

let max_simultaneous_down t =
  let down = Hashtbl.create 8 in
  List.fold_left
    (fun acc event ->
      (match event with
      | Crash { coordinate; _ } -> Hashtbl.replace down coordinate ()
      | Repair { coordinate; _ } -> Hashtbl.remove down coordinate
      | Partition { coordinates; _ } ->
        List.iter (fun c -> Hashtbl.replace down c ()) coordinates
      | Heal { coordinates; _ } ->
        List.iter (fun c -> Hashtbl.remove down c) coordinates
      (* a rotted server still answers (tags stay intact and newer
         writes overwrite the rot), so rot does not count as "down"
         here — its budget is enforced at generation time instead *)
      | BitRot _ -> ());
      max acc (Hashtbl.length down))
    0 t

let crash_count t =
  List.length (List.filter (function Crash _ -> true | _ -> false) t)

let partition_count t =
  List.length (List.filter (function Partition _ -> true | _ -> false) t)

let bitrot_count t =
  List.length (List.filter (function BitRot _ -> true | _ -> false) t)
