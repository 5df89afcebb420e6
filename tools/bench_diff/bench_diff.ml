(* bench_diff: compare a fresh bench run against a committed baseline
   and fail on regressions.

     bench_diff.exe BASELINE.json FRESH.json

   Both files are what `bench/main.exe EXPERIMENT --out FILE` writes
   (bench/bench.ml): a "bench" kind and a "results" array of rows

     {"key": K, "metric": M, "value": V, "unit": U, "better": B}

   The two kinds must agree. Rows are matched by (key, metric), and a
   pair that occurs twice in either file is an error. Only rows whose
   "better" is "higher" or "lower" are compared; "none" marks an
   informational column (totals that scale with a smoke run's size,
   chaos counters). Nothing here knows which experiment wrote a file.

   A row whose unit is a wall-clock rate (ends in "/s") moves with the
   host. CI machines are not the machine the baseline was recorded on,
   so absolute throughput is meaningless; instead we self-calibrate:
   ratio = fresh / baseline for every matched rate row, the median
   ratio is the machine-speed factor, and a row fails when its ratio /
   median is worse than [threshold] in its "better" direction. A
   uniform slowdown (slow runner) moves the median, not the flags; a
   single kernel or probe regressing moves its own ratio against the
   median and fails the build.

   Any other unit is a deterministic count (msgs/op): no host moves it,
   so its raw ratio is held to [threshold], and a rise in every row at
   once fails like a rise in one.

   Exit codes: 0 no regression, 1 regression, 2 bad usage or bad files.

   The parser below is a minimal scanner for that schema — flat objects
   inside one "results" array, string, number and boolean fields only,
   no nesting, no escapes beyond what %S writes. It is not a general
   JSON parser and does not try to be. *)

(* the largest tolerated move in a row's "better" direction: 25% *)
let threshold = 0.25

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

type value =
  | Str of string
  | Num of float
  | Bool of bool
  | Arr of value list
  | Obj of (string * value) list

let literal sc word =
  let n = String.length word in
  let hit =
    sc.pos + n <= String.length sc.s
    && String.equal (String.sub sc.s sc.pos n) word
  in
  if hit then sc.pos <- sc.pos + n;
  hit

(* [opening] item, item, ... [closing] *)
let scan_seq sc opening closing item =
  expect sc opening;
  skip_ws sc;
  if peek_is sc closing then begin
    sc.pos <- sc.pos + 1;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws sc;
      match peek sc with
      | Some ',' ->
        sc.pos <- sc.pos + 1;
        go acc
      | Some c when Char.equal c closing ->
        sc.pos <- sc.pos + 1;
        List.rev acc
      | _ -> fail "expected ',' or %C at offset %d" closing sc.pos
    in
    go []

let rec scan_value sc =
  skip_ws sc;
  match peek sc with
  | Some '"' -> Str (scan_string sc)
  | Some '[' -> Arr (scan_seq sc '[' ']' (fun () -> scan_value sc))
  | Some '{' ->
    Obj
      (scan_seq sc '{' '}' (fun () ->
           let key = scan_string sc in
           expect sc ':';
           (key, scan_value sc)))
  | _ when literal sc "true" -> Bool true
  | _ when literal sc "false" -> Bool false
  | _ -> Num (scan_number sc)


(* ------------------------------------------------------------------ *)
(* bench files *)

type row = {
  key : string;
  metric : string;
  value : float;
  unit : string;
  better : string;
}

type bench = { kind : string; rows : row list }

let get fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> fail "missing field %S" key

let str fields key =
  match get fields key with
  | Str s -> s
  | _ -> fail "field %S is not a string" key

let row_of_fields fields =
  let better = str fields "better" in
  if not (List.exists (String.equal better) [ "higher"; "lower"; "none" ])
  then
    fail "\"better\" is %S, not \"higher\", \"lower\" or \"none\"" better;
  { key = str fields "key";
    metric = str fields "metric";
    value =
      (match get fields "value" with
      | Num f -> f
      | _ -> fail "field \"value\" is not a number");
    unit = str fields "unit";
    better
  }

let name r = r.key ^ " " ^ r.metric
let same a b = String.equal a.key b.key && String.equal a.metric b.metric
let gated r = not (String.equal r.better "none")
let is_rate r = String.ends_with ~suffix:"/s" r.unit

let parse_bench path =
  let fields =
    match scan_value { s = read_file path; pos = 0 } with
    | Obj fields -> fields
    | _ -> fail "%s is not a JSON object" path
  in
  let rows =
    match get fields "results" with
    | Arr items ->
      List.map
        (function
          | Obj row -> row_of_fields row
          | _ -> fail "a \"results\" entry is not an object")
        items
    | _ -> fail "\"results\" is not an array"
  in
  (* a repeated pair would be compared against whichever baseline row
     the lookup finds first *)
  let rec check_unique = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then fail "duplicate row %s in %s" a path;
      check_unique rest
    | _ -> ()
  in
  check_unique (List.sort String.compare (List.map name rows));
  { kind = str fields "bench"; rows }

(* ------------------------------------------------------------------ *)
(* comparison *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 1.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let compare_benches ~baseline ~fresh =
  if not (String.equal baseline.kind fresh.kind) then
    fail "bench kinds differ: baseline is %S, fresh is %S" baseline.kind
      fresh.kind;
  let base_rows = List.filter gated baseline.rows in
  let fresh_rows = List.filter gated fresh.rows in
  let matched, unmatched_fresh =
    List.partition_map
      (fun f ->
        match List.find_opt (same f) base_rows with
        | Some b when b.value > 0.0 ->
          if not (String.equal b.unit f.unit && String.equal b.better f.better)
          then
            fail "%s: unit or direction changed from the baseline" (name f);
          Left (b, f.value /. b.value)
        | Some _ | None -> Right f)
      fresh_rows
  in
  List.iter
    (fun f ->
      Printf.eprintf "bench_diff: warning: no baseline for %s, skipped\n%!"
        (name f))
    unmatched_fresh;
  List.iter
    (fun b ->
      if not (List.exists (same b) fresh_rows) then
        Printf.eprintf
          "bench_diff: warning: baseline row %s absent from fresh run\n%!"
          (name b))
    base_rows;
  if List.is_empty matched then
    fail "no gated rows in common between baseline and fresh run";
  (* Only rates are divided by the machine-speed factor. A count has no
     host to calibrate for, so a rise in every row at once is a protocol
     change and must fail like a rise in one. *)
  let rates =
    List.filter_map (fun (b, r) -> if is_rate b then Some r else None) matched
  in
  let m = median rates in
  Printf.printf "bench_diff: %s, %d matched rows, threshold %.0f%%\n"
    fresh.kind (List.length matched) (100.0 *. threshold);
  if not (List.is_empty rates) then
    Printf.printf
      "  %d wall-clock rates: machine-speed factor (median fresh/baseline) \
       %.2fx\n"
      (List.length rates) m;
  List.filter_map
    (fun (b, ratio) ->
      let rel = if is_rate b then ratio /. m else ratio in
      let flagged =
        if String.equal b.better "higher" then rel < 1.0 -. threshold
        else rel > 1.0 +. threshold
      in
      Printf.printf "  %-44s %-14s %6.2fx raw%s%s\n" b.key b.metric ratio
        (if is_rate b then Printf.sprintf ", %6.2fx vs median" rel else "")
        (if flagged then "  << REGRESSION" else "");
      if flagged then Some (name b) else None)
    matched

let () =
  match Array.to_list Sys.argv with
  | [ _; base_path; fresh_path ] -> begin
    try
      let baseline = parse_bench base_path in
      let fresh = parse_bench fresh_path in
      match compare_benches ~baseline ~fresh with
      | [] -> print_endline "bench_diff: OK"
      | failures ->
        Printf.eprintf "bench_diff: %d regression(s) beyond %.0f%%:\n"
          (List.length failures) (100.0 *. threshold);
        List.iter (Printf.eprintf "  %s\n") failures;
        exit 1
    with Parse_error e ->
      Printf.eprintf "bench_diff: %s\n" e;
      exit 2
  end
  | _ ->
    prerr_endline "usage: bench_diff.exe BASELINE.json FRESH.json";
    exit 2
