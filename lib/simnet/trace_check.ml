type violation = { what : string; index : int }

let pp_violation ppf v = Format.fprintf ppf "%s (event #%d)" v.what v.index

let time_of = function
  | Engine.Sent { time; _ }
  | Engine.Delivered { time; _ }
  | Engine.Dropped { time; _ }
  | Engine.Lost { time; _ }
  | Engine.Crashed { time; _ }
  | Engine.Restored { time; _ }
  | Engine.PartitionStart { time; _ }
  | Engine.PartitionHeal { time; _ } ->
    time

let check ?(lossy = false) events =
  let exception Bad of violation in
  (* outstanding sends per (src, dst) channel *)
  let in_flight : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let crashed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* lossy-model state: per-directed-link active partition layers, and
     per canonical link-set an up/down bit for the alternation axiom *)
  let cut : (int * int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let active_sets : ((int * int) list, unit) Hashtbl.t = Hashtbl.create 16 in
  let canon links =
    List.sort_uniq
      (fun (a, b) (c, d) ->
        match Int.compare a c with 0 -> Int.compare b d | n -> n)
      links
  in
  let last_time = ref neg_infinity in
  let fail what index = raise (Bad { what; index }) in
  let consume ~index ~src ~dst =
    match Hashtbl.find_opt in_flight (src, dst) with
    | Some r when !r > 0 -> decr r
    | Some _ | None ->
      fail
        (Printf.sprintf "delivery on %d->%d without a matching send" src dst)
        index
  in
  try
    List.iteri
      (fun index event ->
        let time = time_of event in
        if time < !last_time then fail "clock ran backwards" index;
        last_time := time;
        match event with
        | Engine.Sent { src; dst; _ } ->
          (match Hashtbl.find_opt in_flight (src, dst) with
          | Some r -> incr r
          | None -> Hashtbl.add in_flight (src, dst) (ref 1))
        | Engine.Delivered { src; dst; _ } ->
          consume ~index ~src ~dst;
          if Hashtbl.mem crashed dst then
            fail
              (Printf.sprintf "message delivered to crashed process %d" dst)
              index
        | Engine.Dropped { src; dst; _ } ->
          consume ~index ~src ~dst;
          (* drops may also occur at handler-less processes, but in
             protocol runs every process has a handler, so a drop implies
             a crashed destination; be permissive only about that case *)
          if not (Hashtbl.mem crashed dst) then
            fail
              (Printf.sprintf "message to live process %d dropped" dst)
              index
        | Engine.Lost { src; dst; _ } ->
          consume ~index ~src ~dst;
          (* the lossy-model axiom: a loss needs an active cause on its
             link — a partition covering it, or a nonzero drop
             probability *)
          let partitioned =
            match Hashtbl.find_opt cut (src, dst) with
            | Some r -> !r > 0
            | None -> false
          in
          if not (partitioned || lossy) then
            fail
              (Printf.sprintf
                 "message on %d->%d lost without an active link fault" src dst)
              index
        | Engine.Crashed { pid; _ } ->
          if Hashtbl.mem crashed pid then
            fail (Printf.sprintf "process %d crashed twice" pid) index;
          Hashtbl.add crashed pid ()
        | Engine.Restored { pid; _ } ->
          if not (Hashtbl.mem crashed pid) then
            fail (Printf.sprintf "live process %d restored" pid) index;
          Hashtbl.remove crashed pid
        | Engine.PartitionStart { links; _ } ->
          let key = canon links in
          if Hashtbl.mem active_sets key then
            fail "partition started twice without a heal" index;
          Hashtbl.add active_sets key ();
          List.iter
            (fun link ->
              match Hashtbl.find_opt cut link with
              | Some r -> incr r
              | None -> Hashtbl.add cut link (ref 1))
            links
        | Engine.PartitionHeal { links; _ } ->
          let key = canon links in
          if not (Hashtbl.mem active_sets key) then
            fail "heal of a partition that was not active" index;
          Hashtbl.remove active_sets key;
          List.iter
            (fun link ->
              match Hashtbl.find_opt cut link with
              | Some r when !r > 0 -> decr r
              | Some _ | None -> fail "partition link count underflow" index)
            links)
      events;
    Ok ()
  with Bad v -> Error v
