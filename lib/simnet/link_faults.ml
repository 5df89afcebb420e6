(* Directed links are keyed by a packed int: (src lsl 20) lor dst. The
   engine caps pids at 2^20 - 1 (they share the event queue's tag word),
   so the packing is collision-free. All tables are lookup-only on the
   send path, and an empty table answers without hashing (every
   workload runs with empty [drop] and [slow]; [cut] fills only during a
   partition). Iteration order never influences an execution, keeping
   runs a pure function of the seed. *)

type t = {
  mutable armed : bool;
  mutable default_drop : float;
  drop : (int, float) Hashtbl.t;
  cut : (int, int) Hashtbl.t;  (* link -> active blackhole count *)
  slow : (int, float list) Hashtbl.t  (* link -> active spike factors *)
}

let key ~src ~dst = (src lsl 20) lor dst

let create () =
  { armed = false;
    default_drop = 0.0;
    drop = Hashtbl.create 16;
    cut = Hashtbl.create 16;
    slow = Hashtbl.create 16
  }

let armed t = t.armed

let check_p p ~where =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "%s: probability %g outside [0, 1]" where p)

let set_default_drop t p =
  check_p p ~where:"Link_faults.set_default_drop";
  t.armed <- true;
  t.default_drop <- p

let set_drop t ~src ~dst p =
  check_p p ~where:"Link_faults.set_drop";
  t.armed <- true;
  Hashtbl.replace t.drop (key ~src ~dst) p

let drop_p t ~src ~dst =
  if Hashtbl.length t.drop = 0 then t.default_drop
  else
    match Hashtbl.find_opt t.drop (key ~src ~dst) with
    | Some p -> p
    | None -> t.default_drop

let lossy t ~src ~dst = drop_p t ~src ~dst > 0.0

let cut_links t links =
  t.armed <- true;
  List.iter
    (fun (src, dst) ->
      let k = key ~src ~dst in
      let n = match Hashtbl.find_opt t.cut k with Some n -> n | None -> 0 in
      Hashtbl.replace t.cut k (n + 1))
    links

let heal_links t links =
  List.iter
    (fun (src, dst) ->
      let k = key ~src ~dst in
      match Hashtbl.find_opt t.cut k with
      | Some n when n > 1 -> Hashtbl.replace t.cut k (n - 1)
      | Some _ -> Hashtbl.remove t.cut k
      | None -> ())
    links

let partitioned t ~src ~dst =
  Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut (key ~src ~dst)

let spike_links t links ~factor =
  if not (factor > 0.0) then
    invalid_arg "Link_faults.spike_links: non-positive factor";
  t.armed <- true;
  List.iter
    (fun (src, dst) ->
      let k = key ~src ~dst in
      let fs =
        match Hashtbl.find_opt t.slow k with Some fs -> fs | None -> []
      in
      Hashtbl.replace t.slow k (factor :: fs))
    links

let unspike_links t links ~factor =
  List.iter
    (fun (src, dst) ->
      let k = key ~src ~dst in
      match Hashtbl.find_opt t.slow k with
      | None -> ()
      | Some fs -> (
        let rec remove_one = function
          | [] -> []
          | f :: rest -> if f = factor then rest else f :: remove_one rest
        in
        match remove_one fs with
        | [] -> Hashtbl.remove t.slow k
        | fs -> Hashtbl.replace t.slow k fs))
    links

let delay_factor t ~src ~dst =
  if Hashtbl.length t.slow = 0 then 1.0
  else
    match Hashtbl.find_opt t.slow (key ~src ~dst) with
    | None -> 1.0
    | Some fs -> List.fold_left ( *. ) 1.0 fs
