(* bench_diff: compare a fresh bench run against a committed baseline
   and fail on regressions.

     bench_diff.exe BASELINE.json FRESH.json [--threshold 0.25]

   Both files are the flat JSON emitted by `bench/main.exe codec|sim`
   (optionally with --smoke / --out). Points are matched by key, and a
   key that occurs twice in either file is an error:

     codec points: (codec, op, size)           -> mb_per_s
     sim points:   (probe)                     -> events_per_s

   CI machines are not the machine the baseline was recorded on, so
   absolute throughput is meaningless. Instead we self-calibrate: for
   every matched key compute ratio = fresh / baseline, take the median
   ratio as the machine-speed factor, and flag keys whose
   ratio / median falls below 1 - threshold. A uniform slowdown (slow
   runner) moves the median, not the flags; a single kernel or probe
   regressing moves its own ratio against the median and fails the
   build.

   The msgs and sharded benches are deterministic message counts per
   operation (`overhead --out`, `sharded --out`):

     msgs points:    (algo)                    -> msgs_per_op
     sharded points: (case)                    -> msgs_per_op

   No host moves a count, so they are not calibrated: a key fails when
   its raw fresh / baseline ratio rises above 1 + threshold, even when
   every key rises together.

   The parser below is a minimal scanner for the schema our own bench
   emitters produce — flat objects inside one "results" array, string
   and number fields only, no nesting, no escapes beyond what %S
   writes. It is not a general JSON parser and does not try to be. *)

let threshold = ref 0.25

(* ------------------------------------------------------------------ *)
(* scanning *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

type scanner = { s : string; mutable pos : int }

let peek sc = if sc.pos < String.length sc.s then Some sc.s.[sc.pos] else None

let peek_is sc c =
  match peek sc with Some c' -> Char.equal c c' | None -> false

let skip_ws sc =
  while
    sc.pos < String.length sc.s
    && match sc.s.[sc.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    sc.pos <- sc.pos + 1
  done

let expect sc c =
  skip_ws sc;
  match peek sc with
  | Some c' when c' = c -> sc.pos <- sc.pos + 1
  | Some c' -> fail "expected %C at offset %d, found %C" c sc.pos c'
  | None -> fail "expected %C at offset %d, found end of input" c sc.pos

(* OCaml's %S escapes are a subset of JSON's except for unprintable
   bytes, which our emitters never produce in key fields. *)
let scan_string sc =
  expect sc '"';
  let b = Buffer.create 16 in
  let rec go () =
    if sc.pos >= String.length sc.s then fail "unterminated string"
    else
      match sc.s.[sc.pos] with
      | '"' -> sc.pos <- sc.pos + 1
      | '\\' ->
        if sc.pos + 1 >= String.length sc.s then fail "unterminated escape";
        (match sc.s.[sc.pos + 1] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | c -> fail "unsupported escape \\%C" c);
        sc.pos <- sc.pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        sc.pos <- sc.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let scan_number sc =
  skip_ws sc;
  let start = sc.pos in
  while
    sc.pos < String.length sc.s
    &&
    match sc.s.[sc.pos] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    sc.pos <- sc.pos + 1
  done;
  if sc.pos = start then fail "expected a number at offset %d" start;
  let lit = String.sub sc.s start (sc.pos - start) in
  match float_of_string_opt lit with
  | Some f -> f
  | None -> fail "bad number %S at offset %d" lit start

type value = Str of string | Num of float | Bool of bool

let scan_scalar sc =
  skip_ws sc;
  match peek sc with
  | Some '"' -> Str (scan_string sc)
  | Some 't' when sc.pos + 4 <= String.length sc.s
                  && String.sub sc.s sc.pos 4 = "true" ->
    sc.pos <- sc.pos + 4;
    Bool true
  | Some 'f' when sc.pos + 5 <= String.length sc.s
                  && String.sub sc.s sc.pos 5 = "false" ->
    sc.pos <- sc.pos + 5;
    Bool false
  | _ -> Num (scan_number sc)

(* a flat object: { "key": scalar, ... } *)
let scan_object sc =
  expect sc '{';
  let fields = ref [] in
  skip_ws sc;
  (if peek_is sc '}' then sc.pos <- sc.pos + 1
   else
     let rec go () =
       skip_ws sc;
       let key = scan_string sc in
       expect sc ':';
       let v = scan_scalar sc in
       fields := (key, v) :: !fields;
       skip_ws sc;
       match peek sc with
       | Some ',' ->
         sc.pos <- sc.pos + 1;
         go ()
       | Some '}' -> sc.pos <- sc.pos + 1
       | _ -> fail "expected ',' or '}' at offset %d" sc.pos
     in
     go ());
  List.rev !fields

(* ------------------------------------------------------------------ *)
(* bench files *)

type bench = { kind : string; points : (string * float) list }

let get fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> fail "point is missing field %S" key

let str = function Str s -> s | _ -> fail "expected a string field"
let num = function Num f -> f | _ -> fail "expected a numeric field"

(* key + metric for one results[] entry, depending on bench kind *)
let point_of_fields kind fields =
  match kind with
  | "codec" ->
    ( Printf.sprintf "%s/%s/%d"
        (str (get fields "codec"))
        (str (get fields "op"))
        (int_of_float (num (get fields "size"))),
      num (get fields "mb_per_s") )
  | "sim" -> (str (get fields "probe"), num (get fields "events_per_s"))
  | "msgs" -> (str (get fields "algo"), num (get fields "msgs_per_op"))
  | "sharded" -> (str (get fields "case"), num (get fields "msgs_per_op"))
  | k -> fail "unknown bench kind %S" k

(* codec/sim measure throughput (higher is better) and move with the
   host; msgs/sharded measure messages per operation, deterministic
   counts (lower is better) that no host can move *)
let is_count = function "msgs" | "sharded" -> true | _ -> false

let parse_bench path =
  let sc = { s = read_file path; pos = 0 } in
  expect sc '{';
  let kind = ref None in
  let points = ref [] in
  let rec go () =
    skip_ws sc;
    let key = scan_string sc in
    expect sc ':';
    (match key with
    | "bench" -> kind := Some (str (scan_scalar sc))
    | "results" -> begin
      expect sc '[';
      skip_ws sc;
      if peek_is sc ']' then sc.pos <- sc.pos + 1
      else
        let rec items () =
          let fields = scan_object sc in
          points := fields :: !points;
          skip_ws sc;
          match peek sc with
          | Some ',' ->
            sc.pos <- sc.pos + 1;
            items ()
          | Some ']' -> sc.pos <- sc.pos + 1
          | _ -> fail "expected ',' or ']' at offset %d" sc.pos
        in
        items ()
    end
    | _ -> ignore (scan_scalar sc));
    skip_ws sc;
    match peek sc with
    | Some ',' ->
      sc.pos <- sc.pos + 1;
      go ()
    | Some '}' -> sc.pos <- sc.pos + 1
    | _ -> fail "expected ',' or '}' at offset %d" sc.pos
  in
  go ();
  let kind =
    match !kind with Some k -> k | None -> fail "missing \"bench\" field"
  in
  let pts = List.rev_map (point_of_fields kind) !points in
  (* a repeated key would be compared against whichever baseline point
     the lookup finds first *)
  let rec check_unique = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then fail "duplicate key %s in %s" a path;
      check_unique rest
    | _ -> ()
  in
  check_unique (List.sort String.compare (List.map fst pts));
  { kind; points = pts }

(* ------------------------------------------------------------------ *)
(* comparison *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 1.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let compare_benches ~baseline ~fresh =
  if baseline.kind <> fresh.kind then
    fail "bench kinds differ: baseline is %S, fresh is %S" baseline.kind
      fresh.kind;
  let matched, unmatched_fresh =
    List.partition_map
      (fun (key, fv) ->
        match List.assoc_opt key baseline.points with
        | Some bv when bv > 0.0 -> Left (key, fv /. bv)
        | Some _ | None -> Right key)
      fresh.points
  in
  let unmatched_base =
    List.filter_map
      (fun (key, _) ->
        if List.exists (fun (k, _) -> String.equal k key) fresh.points then
          None
        else Some key)
      baseline.points
  in
  List.iter
    (Printf.eprintf "bench_diff: warning: no baseline for %s, skipped\n%!")
    unmatched_fresh;
  List.iter
    (Printf.eprintf
       "bench_diff: warning: baseline key %s absent from fresh run\n%!")
    unmatched_base;
  if List.is_empty matched then
    fail "no keys in common between baseline and fresh run";
  let counts = is_count fresh.kind in
  (* Only throughput is divided by the machine-speed factor. A count has
     no host to calibrate for, so a rise in every row at once is a
     protocol change and must fail like a rise in one. *)
  let m = if counts then 1.0 else median (List.map snd matched) in
  if counts then
    Printf.printf
      "bench_diff: %s, %d matched keys, deterministic counts (raw \
       fresh/baseline), threshold %.0f%%\n"
      fresh.kind (List.length matched) (100.0 *. !threshold)
  else
    Printf.printf
      "bench_diff: %s, %d matched keys, machine-speed factor (median \
       fresh/baseline) %.2fx, threshold %.0f%%\n"
      fresh.kind (List.length matched) m (100.0 *. !threshold);
  List.filter_map
    (fun (key, ratio) ->
      let rel = ratio /. m in
      let flagged =
        if counts then rel > 1.0 +. !threshold else rel < 1.0 -. !threshold
      in
      Printf.printf "  %-44s %6.2fx raw%s%s\n" key ratio
        (if counts then "" else Printf.sprintf ", %6.2fx vs median" rel)
        (if flagged then "  << REGRESSION" else "");
      if flagged then Some key else None)
    matched

let usage () =
  prerr_endline
    "usage: bench_diff.exe BASELINE.json FRESH.json [--threshold FRAC]";
  exit 2

let () =
  let rec parse_args files = function
    | [] -> List.rev files
    | "--threshold" :: v :: rest -> begin
      match float_of_string_opt v with
      | Some f when f > 0.0 && f < 1.0 ->
        threshold := f;
        parse_args files rest
      | _ ->
        prerr_endline "bench_diff: --threshold wants a fraction in (0, 1)";
        usage ()
    end
    | "--help" :: _ | "-h" :: _ -> usage ()
    | f :: rest -> parse_args (f :: files) rest
  in
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  match parse_args [] args with
  | [ base_path; fresh_path ] -> begin
    try
      let baseline = parse_bench base_path in
      let fresh = parse_bench fresh_path in
      match compare_benches ~baseline ~fresh with
      | [] -> print_endline "bench_diff: OK"
      | failures ->
        Printf.eprintf "bench_diff: %d regression(s) beyond %.0f%%:\n"
          (List.length failures)
          (100.0 *. !threshold);
        List.iter (Printf.eprintf "  %s\n") failures;
        exit 1
    with Parse_error e ->
      Printf.eprintf "bench_diff: %s\n" e;
      exit 2
  end
  | _ -> usage ()
