(* Directed links are keyed by a packed int: (src lsl 20) lor dst. The
   engine caps pids at 2^20 - 1 (they share the event queue's tag word),
   so the packing is collision-free. [cut] is lookup-only on the send
   path and fills only during a partition; an empty table answers
   without hashing. Iteration order never influences an execution,
   keeping runs a pure function of the seed. *)

type t = {
  mutable armed : bool;
  mutable default_drop : float;
  cut : (int, int) Hashtbl.t  (* link -> active blackhole count *)
}

let key ~src ~dst = (src lsl 20) lor dst

let create () = { armed = false; default_drop = 0.0; cut = Hashtbl.create 16 }

let armed t = t.armed

let set_default_drop t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf
         "Link_faults.set_default_drop: probability %g outside [0, 1]" p);
  t.armed <- true;
  t.default_drop <- p

let drop_p t = t.default_drop

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

let isolation ~isolated ~among =
  let inside = List.sort_uniq Int.compare isolated in
  let outside =
    List.filter (fun pid -> not (List.mem pid inside)) (Array.to_list among)
  in
  List.concat_map
    (fun inner ->
      List.concat_map (fun outer -> [ (inner, outer); (outer, inner) ]) outside)
    inside

let partitioned t ~src ~dst =
  Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut (key ~src ~dst)
