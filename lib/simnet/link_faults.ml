(* Blackholed links are counted in a flat table indexed by pid:
   [cut.(src).(dst)] is the number of active partitions that cut the
   directed link, grown on demand by [cut_links]. The send path reads
   it with two bounds checks and no hashing; before the first cut the
   table is empty. Nothing here is iterated, so no table order can
   reach an execution, which stays a pure function of the seed. *)

type t = {
  mutable armed : bool;
  mutable default_drop : float;
  mutable cut : int array array  (* cut.(src).(dst): active blackholes *)
}

let create () = { armed = false; default_drop = 0.0; cut = [||] }

let armed t = t.armed

let set_default_drop t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf
         "Link_faults.set_default_drop: probability %g outside [0, 1]" p);
  t.armed <- true;
  t.default_drop <- p

let drop_p t = t.default_drop

(* [a] extended to cover index [i], at least doubling. *)
let extend a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let count t ~src ~dst =
  if src < Array.length t.cut && dst < Array.length t.cut.(src) then
    t.cut.(src).(dst)
  else 0

let cut_links t links =
  t.armed <- true;
  List.iter
    (fun (src, dst) ->
      if src >= Array.length t.cut then t.cut <- extend t.cut src [||];
      if dst >= Array.length t.cut.(src) then
        t.cut.(src) <- extend t.cut.(src) dst 0;
      t.cut.(src).(dst) <- t.cut.(src).(dst) + 1)
    links

let heal_links t links =
  List.iter
    (fun (src, dst) ->
      let n = count t ~src ~dst in
      if n > 0 then t.cut.(src).(dst) <- n - 1)
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

let partitioned t ~src ~dst = count t ~src ~dst > 0
