(* soda-lint v2 — determinism & protocol-hygiene linter over typed trees.

   Everything the repo claims (bit-identical chaos replay, linearizability
   verdicts, exact cost equalities) rests on the simulator being
   deterministic, the checker hot paths being domain-safe, and every
   role handling the full SODA message alphabet. This driver walks the
   .cmt files produced by dune's -bin-annot (compiler-libs Cmt_format +
   Tast_iterator) and enforces those invariants statically; the .cmti
   interfaces feed the dead-export pass.

   v2 is multi-pass with whole-program analyses (see DESIGN.md, "Static
   analysis v2"):

     pass 1  harvest every unit: type/alias knowledge base (Lint_kb),
             call graph + effect seeds (Lint_callgraph), alias event
             lists (Pass_alias), protocol spec tables + usage
             (Pass_protocol)
     close   taint fixpoint over the call graph; interprocedural
             publish/mutate summaries for the alias pass
     pass 2  walk the scoped units reporting diagnostics (Pass_local),
             then the whole-program checks (Pass_protocol / Pass_alias)
             and every scoped interface's exports (Pass_exports)

   Rule families (suppress locally with [@lint.allow "ID: why"] — the
   reason is mandatory, a bare allow still suppresses but is itself an
   S1 diagnostic):

     D1–D3  direct nondeterminism: wall-clock, global Random, Hashtbl
            iteration order (lib scoping as in v1)
     P1/P2  polymorphic compare at non-immediate types; stdout in lib/
     R1     top-level mutable state
     E1     catch-all exception handlers
     U1     unchecked accesses / %caml_*u primitives
     S1     suppression without a reason string
     M1–M4  protocol conformance against the [@lint.msg] spec table on
            [@@lint.protocol] message types: undeclared/drifting
            constructors, sent-but-never-handled, handled-but-never-
            sent, nested envelopes
     A1     mutation of a payload buffer after it was published,
            uncopied, into Engine.send/Disk
     T1–T3  transitive (call-graph) reach of D1/D2+Domain/D3 effects
     X1     a lib/*/*.mli value no other unit in lib/, bin/, bench/,
            perf/, examples/ or tools/ references — aliases, functor
            arguments and packed modules count; test oracles, state
            probes and fault hooks carry [@@lint.allow "X1: why"]
     O1     an optional parameter of such a value that no application
            in those units supplies (~x, ~x:e, ?x, ?x:e); a value used
            other than as an application's head counts as supplying
            all; an option only tests turn carries
            [@@lint.allow "O1: why"]

   Output: plain "<file>:<line>:<col>: [ID] msg" lines by default,
   --json for a machine-readable report, --github (auto-on when
   GITHUB_ACTIONS=true) adds ::error workflow annotations on stderr.

   Exit code: 0 clean, 1 violations found, 2 usage/IO error. *)

let usage = "soda_lint [--all-rules] [--json] [--github] <dir-or-cmt> ..."

let rec collect_cmts acc path =
  match (Unix.stat path).Unix.st_kind with
  | Unix.S_DIR ->
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry -> collect_cmts acc (Filename.concat path entry))
      acc entries
  | Unix.S_REG
    when Filename.check_suffix path ".cmt"
         || Filename.check_suffix path ".cmti" ->
    path :: acc
  | _ -> acc
  | exception Unix.Unix_error _ -> acc

let read_cmt path =
  match Cmt_format.read_cmt path with
  | infos -> Some infos
  | exception _ ->
    prerr_endline ("soda-lint: warning: unreadable cmt " ^ path);
    None

(* ------------------------------------------------------------------ *)
(* Output *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_json (ds : Lint_kb.diag list) ~suppressed ~units =
  print_string "{\n  \"violations\": [";
  List.iteri
    (fun i (d : Lint_kb.diag) ->
      Printf.printf "%s\n    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \
                     \"rule\": \"%s\", \"msg\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape d.file) d.line d.col
        (Lint_kb.rule_id d.rule) (json_escape d.msg))
    ds;
  Printf.printf "%s],\n" (if ds = [] then "" else "\n  ");
  Printf.printf "  \"suppressed\": %d,\n  \"units\": %d\n}\n" suppressed units

(* GitHub workflow-command data escaping: %, CR, LF *)
let gh_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_github (ds : Lint_kb.diag list) =
  List.iter
    (fun (d : Lint_kb.diag) ->
      Printf.eprintf "::error file=%s,line=%d,col=%d,title=soda-lint %s::%s\n"
        (gh_escape d.file) d.line (d.col + 1)
        (Lint_kb.rule_id d.rule) (gh_escape d.msg))
    ds

(* ------------------------------------------------------------------ *)

let () =
  let all = ref false and json = ref false and github = ref false in
  let roots = ref [] in
  let spec =
    [ ("--all-rules", Arg.Set all,
       " apply every rule to every file (fixture/test mode)");
      ("--json", Arg.Set json, " print a JSON report on stdout");
      ("--github", Arg.Set github,
       " print ::error workflow annotations on stderr (auto when \
        GITHUB_ACTIONS=true)") ]
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  if Sys.getenv_opt "GITHUB_ACTIONS" = Some "true" then github := true;
  if !roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let cmts =
    List.fold_left collect_cmts [] (List.sort String.compare !roots)
    |> List.sort String.compare
  in
  if cmts = [] then begin
    prerr_endline "soda-lint: no .cmt files found (build @check first)";
    exit 2
  end;
  let annots = List.filter_map read_cmt cmts in
  let units =
    List.filter_map
      (fun (infos : Cmt_format.cmt_infos) ->
        match infos.cmt_annots with
        | Cmt_format.Implementation str -> Some (infos, str)
        | _ -> None)
      annots
  in
  let source_of (infos : Cmt_format.cmt_infos) =
    Option.value ~default:"" infos.cmt_sourcefile
  in
  (* pass 1a: knowledge base from every unit, including dune's generated
     wrapper modules (their aliases canonicalize cross-library names),
     then the protocol spec tables (which resolve through the kb) *)
  List.iter
    (fun ((infos : Cmt_format.cmt_infos), str) ->
      Lint_kb.harvest_structure ~stack:[ infos.cmt_modname ] str)
    units;
  List.iter
    (fun ((infos : Cmt_format.cmt_infos), str) ->
      Pass_protocol.harvest_decls ~source:(source_of infos)
        ~stack:[ infos.cmt_modname ] str)
    units;
  (* pass 1b: per-unit harvests that need the kb — call graph refs and
     effect seeds, alias event lists, protocol usage *)
  List.iter
    (fun ((infos : Cmt_format.cmt_infos), str) ->
      let source = source_of infos in
      if Filename.check_suffix source ".ml" then begin
        Lint_callgraph.harvest ~all:!all ~source ~modname:infos.cmt_modname
          str;
        Pass_alias.harvest ~source ~modname:infos.cmt_modname str;
        Pass_protocol.harvest_usage ~source ~modname:infos.cmt_modname
          ~scope:(Lint_kb.scope_of_source ~all:!all source)
          str
      end)
    units;
  (* close the whole-program analyses *)
  Lint_callgraph.solve ();
  Pass_alias.solve ();
  (* pass 2: local rules + taint reporting on scoped units *)
  List.iter
    (fun ((infos : Cmt_format.cmt_infos), str) ->
      let source = source_of infos in
      if Filename.check_suffix source ".ml" then begin
        let active = Lint_kb.scope_of_source ~all:!all source in
        if active <> [] then
          Pass_local.lint ~active ~modname:infos.cmt_modname str
      end)
    units;
  Pass_protocol.check ~all:!all ();
  Pass_alias.check ~all:!all ();
  List.iter
    (fun (infos : Cmt_format.cmt_infos) ->
      match infos.cmt_annots with
      | Cmt_format.Interface sg ->
        Pass_exports.check ~all:!all ~source:(source_of infos)
          ~modname:infos.cmt_modname sg
      | _ -> ())
    annots;
  let ds = Lint_kb.sorted_diags () in
  if !github then print_github ds;
  if !json then print_json ds ~suppressed:!Lint_kb.suppressed
      ~units:(List.length units)
  else
    List.iter
      (fun (d : Lint_kb.diag) ->
        Printf.printf "%s:%d:%d: [%s] %s\n" d.file d.line d.col
          (Lint_kb.rule_id d.rule) d.msg)
      ds;
  Printf.eprintf "soda-lint: %d violation(s), %d suppressed, %d unit(s)\n%!"
    (List.length ds) !Lint_kb.suppressed (List.length units);
  exit (if ds = [] then 0 else 1)
