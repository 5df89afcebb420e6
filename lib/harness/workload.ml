module Params = Protocol.Params
module Rng = Simnet.Rng

type op =
  | Write of { writer : int; at : float; value : bytes }
  | Read of { reader : int; at : float }

type t = {
  params : Params.t;
  value_len : int;
  num_writers : int;
  num_readers : int;
  ops : op list;
  delay : Simnet.Delay.t;
  seed : int;
  server_crashes : (int * float) list;
  error_prone : int list
}

let value ~len ~seed ~index =
  let rng = Rng.create ((seed * 0x9e3779b9) lxor (index * 0x85ebca6b) lxor 0x5bd1e995) in
  Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))

let default_delay = Simnet.Delay.uniform ~lo:0.2 ~hi:2.0

let sequential ~params ?(value_len = 256) ?(seed = 1) ?(delay = default_delay)
    ~rounds () =
  if rounds < 0 then invalid_arg "Workload.sequential: negative rounds";
  (* Generous spacing guarantees quiescence between operations under the
     default bounded delay models. *)
  let gap = 1000.0 in
  let ops = ref [] in
  for r = 0 to rounds - 1 do
    let base = float_of_int r *. (2.0 *. gap) in
    ops :=
      Read { reader = 0; at = base +. gap }
      :: Write
           { writer = 0; at = base; value = value ~len:value_len ~seed ~index:r }
      :: !ops
  done;
  { params;
    value_len;
    num_writers = 1;
    num_readers = 1;
    ops = List.rev !ops;
    delay;
    seed;
    server_crashes = [];
    error_prone = []
  }

let concurrent ~params ?(value_len = 256) ?(seed = 1) ?(delay = default_delay)
    ?(num_writers = 2) ?(num_readers = 2) ~ops_per_client () =
  if num_writers < 1 || num_readers < 1 then
    invalid_arg "Workload.concurrent: need at least one client of each kind";
  let rng = Rng.create seed in
  let ops = ref [] in
  let index = ref 0 in
  (* Interleave client schedules; jitter keeps invocations from aligning.
     Clients are single-lane, so successive ops of one client must be
     spaced beyond the worst-case operation latency; concurrency comes
     from different clients overlapping. *)
  let client_gap = 400.0 and spacing = 1.0 in
  for o = 0 to ops_per_client - 1 do
    let base = float_of_int o *. client_gap in
    for w = 0 to num_writers - 1 do
      let at = base +. (float_of_int w *. spacing) +. Rng.float rng spacing in
      ops :=
        Write
          { writer = w; at; value = value ~len:value_len ~seed ~index:!index }
        :: !ops;
      incr index
    done;
    for r = 0 to num_readers - 1 do
      let at =
        base +. (float_of_int r *. spacing) +. Rng.float rng (3.0 *. spacing)
      in
      ops := Read { reader = r; at } :: !ops
    done
  done;
  let by_time a b =
    let at = function Write { at; _ } | Read { at; _ } -> at in
    Float.compare (at a) (at b)
  in
  { params;
    value_len;
    num_writers;
    num_readers;
    ops = List.sort by_time !ops;
    delay;
    seed;
    server_crashes = [];
    error_prone = []
  }

let read_with_write_storm ~params ?(value_len = 256) ?(seed = 1) ~writers
    ~writes_per_writer () =
  if writers < 1 then invalid_arg "Workload.read_with_write_storm: no writers";
  (* One read in the middle of a storm of writes under high-variance
     delays. Mixed stored tags and straggling READ-DISPERSE announcements
     keep servers registered across several write dispersals, so the
     measured δ_w (writes initiated inside the read's registration
     window, computed from probes) spans a useful range across seeds.
     This is the δ_w experiment of Theorem 5.6: read cost vs
     n/(n-f) * (δ_w + 1). *)
  let delay = Simnet.Delay.exponential ~mean:1.5 ~cap:12.0 in
  let warmup =
    Write
      { writer = 0; at = 0.0; value = value ~len:value_len ~seed ~index:1000 }
  in
  let read = Read { reader = 0; at = 30.0 } in
  let ops = ref [ read; warmup ] in
  let index = ref 0 in
  for w = 0 to writers - 1 do
    for j = 0 to writes_per_writer - 1 do
      (* per-writer spacing of 80 keeps each client well-formed even at
         the delay cap; overlap with the read comes from distinct writers
         staggered across the read's registration window (which typically
         opens a few time units after the read's invocation at t=30) *)
      let at = 28.0 +. (float_of_int j *. 80.0) +. (float_of_int w *. 3.0) in
      ops :=
        Write { writer = w; at; value = value ~len:value_len ~seed ~index:!index }
        :: !ops;
      incr index
    done
  done;
  let by_time a b =
    let at = function Write { at; _ } | Read { at; _ } -> at in
    Float.compare (at a) (at b)
  in
  { params;
    value_len;
    num_writers = writers;
    num_readers = 1;
    ops = List.sort by_time !ops;
    delay;
    seed;
    server_crashes = [];
    error_prone = []
  }

(* ------------------------------------------------------------------ *)
(* Sharded (multi-key) workloads: operations name a logical key of a
   keyspace instead of implying the one register. Values are carried as
   indices into [value] rather than materialized bytes, so a
   100k-operation schedule stays cheap to build and thread across
   domains. *)

type kop =
  | KWrite of { key : int; writer : int; at : float; index : int }
  | KRead of { key : int; reader : int; at : float }

type sharded = {
  sh_keys : int;
  sh_value_len : int;
  sh_num_writers : int;
  sh_num_readers : int;
  sh_kops : kop list;
  sh_delay : Simnet.Delay.t;
  sh_seed : int
}

let sharded_mixed ~keys ?(value_len = 256) ?(seed = 1) ?(num_writers = 4)
    ?(num_readers = 4) ?(round_gap = 30.0) () =
  if keys < 1 then invalid_arg "Workload.sharded_mixed: need at least one key";
  if num_writers < 1 || num_readers < 1 then
    invalid_arg "Workload.sharded_mixed: need at least one client of each kind";
  (* Key k is written once by writer [k mod W] and read once by reader
     [k mod R]. Keys assigned to the same writer are on distinct lanes
     (well-formedness is per client *and* key), so rounds only need
     spacing to bound in-flight concurrency, not to serialize: each
     round starts [round_gap] after the previous, comfortably past the
     fault-free operation latency. *)
  let ops = ref [] in
  for k = keys - 1 downto 0 do
    let w = k mod num_writers in
    let r = k mod num_readers in
    let round = k / num_writers in
    let wat = (float_of_int round *. round_gap) +. (float_of_int w *. 1.3) in
    ops :=
      KWrite { key = k; writer = w; at = wat; index = k }
      :: KRead { key = k; reader = r; at = wat +. 15.0 }
      :: !ops
  done;
  let by_time a b =
    let at = function KWrite { at; _ } | KRead { at; _ } -> at in
    Float.compare (at a) (at b)
  in
  { sh_keys = keys;
    sh_value_len = value_len;
    sh_num_writers = num_writers;
    sh_num_readers = num_readers;
    sh_kops = List.stable_sort by_time !ops;
    sh_delay = default_delay;
    sh_seed = seed
  }

let sharded_ops s = List.length s.sh_kops

let with_crashes t crashes = { t with server_crashes = t.server_crashes @ crashes }
let with_errors t coords = { t with error_prone = t.error_prone @ coords }
let total_ops t = List.length t.ops

