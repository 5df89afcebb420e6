module Params = Protocol.Params

(* Spread policy: how a key's n coordinates are chosen among the
   topology's servers. Both policies give every key n distinct servers,
   span min(domains, n) failure domains, and put at most
   ceil(n / min(domains, n)) fragments in any one domain. *)
type policy = Mod_stripe | Consistent_hash

type t = {
  topology : Topology.t;
  params : Params.t;
  policy : policy;
  (* domain -> member servers, ascending *)
  by_domain : int array array;
  (* Consistent_hash: (point, server) vnodes sorted by point; empty
     for Mod_stripe *)
  ring : (int * int) array
}

(* Geometry presets in the "data+parity" notation of storage-placement
   ADRs: k data fragments plus (n - k) parity. SODA's code dimension is
   k = n - f, so "4+2" is a 6-server instance tolerating f = 2 crashes
   and "10+4" a 14-server instance tolerating f = 4. *)
type preset = [ `P4_2 | `P10_4 ]

let preset_params = function
  | `P4_2 -> Params.make ~n:6 ~f:2 ()
  | `P10_4 -> Params.make ~n:14 ~f:4 ()

let preset_of_string = function
  | "4+2" -> Some `P4_2
  | "10+4" -> Some `P10_4
  | _ -> None

let preset_name = function `P4_2 -> "4+2" | `P10_4 -> "10+4"

(* Deterministic integer mix (xorshift-multiply finalizer, same family
   as Workload's value generator) — the simulator bans wall-clock and
   [Random] nondeterminism, and placement must be a pure function of
   the key anyway so clients and tests agree on it. *)
let mix k =
  let h = ref ((k + 1) * 0x9E3779B9) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x85EBCA6B;
  h := !h lxor (!h lsr 13);
  h := !h * 0xC2B2AE35;
  h := !h lxor (!h lsr 16);
  !h land 0x3FFFFFFF

let vnodes_per_server = 8

let create ~topology ~params ?(policy = Mod_stripe) () =
  let n = Params.n params in
  let m = Topology.servers topology in
  if n > m then
    invalid_arg
      (Printf.sprintf "Placement.create: n = %d fragments but only %d servers"
         n m);
  let dcount = Topology.num_domains topology in
  let dused = min dcount n in
  let cap = (n + dused - 1) / dused in
  if dcount <= n && Topology.min_domain_size topology < cap then
    invalid_arg
      (Printf.sprintf
         "Placement.create: smallest domain has %d servers but balanced \
          placement needs %d per domain"
         (Topology.min_domain_size topology) cap);
  let by_domain =
    Array.init dcount (fun d ->
        Array.of_list (Topology.domain_members topology d))
  in
  let ring =
    match policy with
    | Mod_stripe -> [||]
    | Consistent_hash ->
      let points =
        Array.init (m * vnodes_per_server) (fun i ->
            let s = i / vnodes_per_server in
            let v = i mod vnodes_per_server in
            (mix ((s * 0x10001) + (v * 7919) + 0x2545), s))
      in
      (* ties broken by (point, server, position): compare the pairs *)
      Array.sort
        (fun (p1, s1) (p2, s2) ->
          if p1 <> p2 then Int.compare p1 p2 else Int.compare s1 s2)
        points;
      points
  in
  { topology; params; policy; by_domain; ring }

let params t = t.params
let topology t = t.topology

(* Striping: domain of coordinate i rotates with (key + i), the
   within-domain slot advances every full rotation — n distinct
   servers, consecutive coordinates in distinct domains (so the MD
   primitives' first set D spans min(f+1, domains) domains), at most
   [cap] per domain. *)
let stripe t ~key n =
  let dcount = Topology.num_domains t.topology in
  Array.init n (fun i ->
      let d = (key + i) mod dcount in
      let members = t.by_domain.(d) in
      let len = Array.length members in
      members.(((key / dcount) + (i / dcount)) mod len))

(* Consistent hashing: walk the vnode ring from the key's point. Phase
   one takes at most one server per domain until min(domains, n)
   domains hold a fragment (the spread guarantee); phase two fills up
   to n under the per-domain cap (the balance guarantee). The picked
   servers are then emitted round-robin across domains in
   first-appearance order, so consecutive coordinates span domains just
   like striping. *)
let ring_walk t ~key n =
  let dcount = Topology.num_domains t.topology in
  let dused = min dcount n in
  let cap = (n + dused - 1) / dused in
  let ring = t.ring in
  let len = Array.length ring in
  let p = mix key in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst ring.(mid) < p then lo := mid + 1 else hi := mid
  done;
  let start = if !lo >= len then 0 else !lo in
  let taken = Array.make (Topology.servers t.topology) false in
  let per_domain = Array.make dcount 0 in
  let by_d = Array.make dcount [] in
  let dorder = ref [] in
  let picked = ref 0 in
  let take s =
    let d = Topology.domain_of t.topology s in
    taken.(s) <- true;
    if per_domain.(d) = 0 then dorder := d :: !dorder;
    per_domain.(d) <- per_domain.(d) + 1;
    by_d.(d) <- s :: by_d.(d);
    incr picked
  in
  (* phase one: spread *)
  let i = ref 0 in
  let spread = ref 0 in
  while !spread < dused && !i < len do
    let s = snd ring.((start + !i) mod len) in
    let d = Topology.domain_of t.topology s in
    if (not taken.(s)) && per_domain.(d) = 0 then begin
      take s;
      incr spread
    end;
    incr i
  done;
  (* phase two: fill under the cap *)
  let i = ref 0 in
  while !picked < n && !i < len do
    let s = snd ring.((start + !i) mod len) in
    let d = Topology.domain_of t.topology s in
    if (not taken.(s)) && per_domain.(d) < cap then take s;
    incr i
  done;
  assert (!picked = n);
  let queues =
    Array.of_list
      (List.rev_map (fun d -> Array.of_list (List.rev by_d.(d))) !dorder)
  in
  let out = Array.make n (-1) in
  let idx = ref 0 in
  let round = ref 0 in
  while !idx < n do
    Array.iter
      (fun q ->
        if !idx < n && !round < Array.length q then begin
          out.(!idx) <- q.(!round);
          incr idx
        end)
      queues;
    incr round
  done;
  out

let servers_of t ~key =
  if key < 0 then invalid_arg "Placement.servers_of: negative key";
  let n = Params.n t.params in
  match t.policy with
  | Mod_stripe -> stripe t ~key n
  | Consistent_hash -> ring_walk t ~key n

let domains_spanned t ~key =
  let coords = servers_of t ~key in
  let seen = Array.make (Topology.num_domains t.topology) false in
  Array.iter (fun s -> seen.(Topology.domain_of t.topology s) <- true) coords;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let max_per_domain t ~key =
  let coords = servers_of t ~key in
  let counts = Array.make (Topology.num_domains t.topology) 0 in
  Array.iter
    (fun s ->
      let d = Topology.domain_of t.topology s in
      counts.(d) <- counts.(d) + 1)
    coords;
  Array.fold_left max 0 counts

(* A whole-domain failure stays within every key's crash budget iff the
   per-domain cap is at most f. *)
let domain_safe t =
  let n = Params.n t.params in
  let dused = min (Topology.num_domains t.topology) n in
  (n + dused - 1) / dused <= Params.f t.params
