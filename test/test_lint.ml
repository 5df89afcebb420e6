(* soda-lint end-to-end: run the linter over the fixture library and
   assert the exact diagnostic set — one finding per rule, at the line
   the fixture plants it, and nothing from the [@lint.allow] file. The
   X1 fixtures (x1_lib, x1_arg, x1_use) report only the dead export and
   the bare allow: a use through a module alias, a functor argument and
   a reasoned allow all keep an export alive. X1_fun's functor result
   signature is checked too: its instance in x1_use keeps [used] alive,
   and [dead] is reported. So are the [val]s X1_inc exports only
   through [include X1_sig.S]: [dead] is reported at the include.
   The O1 fixtures (o1_lib, o1_use) report only the option no
   application supplies, once per option: an option supplied with
   [~x] or only through [?x] forwarding, an aliased value's, a value
   passed as an argument's and an allowed one are not reported.

   The test runs unsandboxed (see test/dune) so the relative paths below
   resolve inside _build/default. *)

let lint_exe = "../tools/lint/soda_lint.exe"
let fixtures_dir = "../tools/lint/fixtures"

type finding = { file : string; line : int; rule : string }

let finding_compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.rule b.rule
    | c -> c)
  | c -> c

let pp_finding ppf f = Format.fprintf ppf "%s:%d [%s]" f.file f.line f.rule

let finding_t = Alcotest.testable pp_finding (fun a b -> finding_compare a b = 0)

(* "<path>:<line>:<col>: [<RULE>] <msg>" *)
let parse_line line =
  match (String.index_opt line '[', String.split_on_char ':' line) with
  | Some i, path :: ln :: _ -> (
    match (String.index_from_opt line i ']', int_of_string_opt ln) with
    | Some j, Some n ->
      Some
        { file = Filename.basename path;
          line = n;
          rule = String.sub line (i + 1) (j - i - 1)
        }
    | _ -> None)
  | _ -> None

let run_lint flags =
  let cmd =
    Printf.sprintf "%s %s %s 2>/dev/null" lint_exe flags fixtures_dir
  in
  let ic = Unix.open_process_in cmd in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  (lines, status)

let lint_output = lazy (run_lint "--all-rules")
let json_output = lazy (run_lint "--all-rules --json")

let expected =
  [ { file = "bad_a1.ml"; line = 10; rule = "A1" };
    { file = "bad_d1.ml"; line = 2; rule = "D1" };
    { file = "bad_d2.ml"; line = 2; rule = "D2" };
    { file = "bad_d3.ml"; line = 3; rule = "D3" };
    { file = "bad_e1.ml"; line = 2; rule = "E1" };
    { file = "bad_m1.ml"; line = 6; rule = "M1" };
    { file = "bad_m2.ml"; line = 5; rule = "M2" };
    { file = "bad_m3.ml"; line = 4; rule = "M3" };
    { file = "bad_m4.ml"; line = 8; rule = "M4" };
    { file = "bad_p1.ml"; line = 4; rule = "P1" };
    { file = "bad_p1_var.ml"; line = 4; rule = "P1" };
    { file = "bad_p2.ml"; line = 2; rule = "P2" };
    { file = "bad_r1.ml"; line = 2; rule = "R1" };
    { file = "bad_s1.ml"; line = 3; rule = "S1" };
    { file = "bad_t1.ml"; line = 3; rule = "D1" };
    { file = "bad_t1.ml"; line = 5; rule = "T1" };
    { file = "bad_t2.ml"; line = 3; rule = "D2" };
    { file = "bad_t2.ml"; line = 5; rule = "T2" };
    { file = "bad_t3.ml"; line = 3; rule = "D3" };
    { file = "bad_t3.ml"; line = 5; rule = "T3" };
    { file = "bad_u1.ml"; line = 2; rule = "U1" };
    { file = "bad_u1.ml"; line = 4; rule = "U1" };
    { file = "o1_lib.mli"; line = 3; rule = "O1" };
    { file = "o1_lib.mli"; line = 6; rule = "O1" };
    { file = "x1_fun.mli"; line = 8; rule = "X1" };
    { file = "x1_inc.mli"; line = 4; rule = "X1" };
    { file = "x1_lib.mli"; line = 3; rule = "X1" };
    { file = "x1_lib.mli"; line = 10; rule = "S1" }
  ]

let test_diagnostic_set () =
  let lines, _ = Lazy.force lint_output in
  let found = List.filter_map parse_line lines |> List.sort finding_compare in
  Alcotest.(check (list finding_t))
    "one finding per rule, at the planted location" expected found

let test_exit_code () =
  let _, status = Lazy.force lint_output in
  match status with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 1, got exit %d" n
  | _ -> Alcotest.fail "linter killed by signal"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_suppression () =
  let lines, _ = Lazy.force lint_output in
  List.iter
    (fun line ->
      if contains ~sub:"good_allow" line then
        Alcotest.failf "suppressed fixture leaked a diagnostic: %s" line)
    lines

(* pull "<key>": <int> / "<key>": "<string>" out of one JSON object line;
   enough structure-awareness for the report format we emit *)
let json_field line key =
  let marker = Printf.sprintf "\"%s\": " key in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      let quoted = line.[start] = '"' in
      let start = if quoted then start + 1 else start in
      stop := start;
      while
        !stop < n
        &&
        if quoted then line.[!stop] <> '"'
        else match line.[!stop] with '0' .. '9' -> true | _ -> false
      do
        incr stop
      done;
      String.sub line start (!stop - start))
    (find 0)

let parse_json_line line =
  match
    ( json_field line "file",
      Option.bind (json_field line "line") int_of_string_opt,
      json_field line "rule" )
  with
  | Some file, Some line, Some rule ->
    Some { file = Filename.basename file; line; rule }
  | _ -> None

let test_json_report () =
  let lines, status = Lazy.force json_output in
  (match status with
  | Unix.WEXITED 1 -> ()
  | _ -> Alcotest.fail "json run should still exit 1 on violations");
  let found =
    List.filter_map parse_json_line lines |> List.sort finding_compare
  in
  Alcotest.(check (list finding_t))
    "JSON report carries the same findings" expected found;
  let all = String.concat "\n" lines in
  List.iter
    (fun sub ->
      if not (contains ~sub all) then
        Alcotest.failf "JSON report is missing %S" sub)
    [ "\"violations\""; "\"suppressed\""; "\"units\"" ]

let () =
  Alcotest.run "soda-lint"
    [ ( "fixtures",
        [ Alcotest.test_case "diagnostic set" `Quick test_diagnostic_set;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "allow suppression" `Quick test_suppression;
          Alcotest.test_case "json report" `Quick test_json_report
        ] )
    ]
