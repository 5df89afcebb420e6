(* The local (single-expression) rules, ported from soda-lint v1, plus
   the two rule families that report at use sites of cross-unit results:
   S1 (suppressions must carry a reason) and T1–T3 (references to
   definitions the call-graph fixpoint proved to reach a nondeterminism
   effect — see Lint_callgraph).

   Local rules: D1 wall-clock, D2 global Random, D3 Hashtbl iteration,
   P1 polymorphic compare at non-immediate type, P2 stdout writes,
   R1 top-level mutable state, E1 catch-all handlers, U1 unchecked
   accesses/primitives. Semantics are unchanged from v1; the banned-
   identifier tables for D1–D3 now live in Lint_callgraph so direct
   checks and taint seeds can never drift apart. *)

open Lint_kb

(* U1: unchecked accesses. Matched by full path so a repo module
   exporting an [unsafe_times]-style accessor (safe, just raw) is not
   flagged — only the stdlib accessors that actually skip bounds
   checks. *)
let u1_modules =
  [ "Stdlib.Array"; "Stdlib.Bytes"; "Stdlib.String"; "Stdlib.Float.Array";
    "Stdlib.Bigarray.Array1"; "Stdlib.Bigarray.Array2" ]

let u1_violation name =
  match String.rindex_opt name '.' with
  | None -> false
  | Some i ->
    let m = String.sub name 0 i in
    let f = String.sub name (i + 1) (String.length name - i - 1) in
    String.length f > 7
    && String.sub f 0 7 = "unsafe_"
    && List.mem m u1_modules

(* U1 at external declarations: the unchecked compiler builtins are the
   %caml_* accessors with a trailing 'u' (get64u, set16u, ...) plus
   anything spelling "unsafe" outright. *)
let u1_unchecked_primitive prims =
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  List.exists
    (fun p ->
      String.length p > 1
      && p.[0] = '%'
      && (contains_sub p "unsafe"
         || (p.[String.length p - 1] = 'u'
            &&
            match p.[String.length p - 2] with '0' .. '9' -> true | _ -> false)))
    prims

let p2_idents =
  [ "Stdlib.print_endline"; "Stdlib.print_string"; "Stdlib.print_newline";
    "Stdlib.print_int"; "Stdlib.print_char"; "Stdlib.print_float";
    "Stdlib.print_bytes"; "Stdlib.Printf.printf"; "Stdlib.Format.printf";
    "Stdlib.Format.print_string"; "Stdlib.Format.print_newline";
    "Stdlib.Format.print_int"; "Stdlib.Format.print_flush";
    "Stdlib.Format.std_formatter"; "Stdlib.stdout" ]

(* polymorphic comparison family: the instantiated type of each one's
   first argument decides the verdict. A higher-order function such as
   [List.sort_uniq] is not in it: a polymorphic [compare] passed to it
   is reported on its own identifier, and a dedicated comparator is
   fine at any element type. *)
let p1_idents =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.=="; "Stdlib.!="; "Stdlib.compare";
    "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>="; "Stdlib.min";
    "Stdlib.max"; "Stdlib.List.mem"; "Stdlib.List.assoc";
    "Stdlib.List.mem_assoc"; "Stdlib.Hashtbl.hash" ]

(* The comparison *operators* (and [compare] itself) are specialized by
   the compiler to direct primitives when the argument type is statically
   a base type — [a < b] at [float] compiles to an unboxed float compare,
   not a call to the generic structural walker — so at those types they
   are neither a determinism nor a performance hazard. [Stdlib.min]/
   [max]/[List.mem]/... are ordinary polymorphic functions and get no
   such specialization, so they stay flagged even at [float]. *)
let p1_specialized_ops =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>=" ]

let specializable_base =
  [ Predef.path_float; Predef.path_string; Predef.path_char;
    Predef.path_int32; Predef.path_int64; Predef.path_nativeint ]

let compiler_specializes name (ty : Types.type_expr) =
  List.mem name p1_specialized_ops
  &&
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> List.exists (Path.same p) specializable_base
  | _ -> false

(* A comparison whose subject is still a type variable once the
   enclosing definition is typed: a generic scan such as
   [let rec index_of a x i = ... a.(i) = x ...]. Even when every caller
   passes ints, the body compiles to [caml_equal]/[caml_compare] (and,
   for an array, a float-array check on every read). *)
let is_type_variable (ty : Types.type_expr) =
  match Types.get_desc ty with Tvar _ | Tunivar _ -> true | _ -> false

(* [==] and [!=] compile to a pointer comparison at every type *)
let physical name = name = "Stdlib.==" || name = "Stdlib.!="

(* first arrow argument of an (instantiated) function type *)
let rec first_arrow_arg ~fuel ty =
  if fuel = 0 then None
  else
    match Types.get_desc ty with
    | Tarrow (_, a, _, _) -> Some a
    | Tlink t | Tsubst (t, _) | Tpoly (t, _) ->
      first_arrow_arg ~fuel:(fuel - 1) t
    | _ -> None

let p1_subject_type name fn_ty =
  if List.mem name p1_idents then first_arrow_arg ~fuel:8 fn_ty else None

(* ------------------------------------------------------------------ *)

type ctx = {
  active : rule list;
  allows : Allows.t;
  mutable stack : string list; (* enclosing module path, innermost first *)
  mutable expr_depth : int;
  mutable current_def : string option (* canonical name of enclosing
                                         module-level binding, to skip
                                         self-referential taint *)
}

let push ctx entries =
  check_reasons ~active:ctx.active ~allows:ctx.allows entries;
  Allows.push ctx.allows entries

let pop ctx entries = Allows.pop ctx.allows entries

(* catch-all patterns for E1 *)
let rec pat_is_catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> pat_is_catch_all p
  | Tpat_or (a, b, _) -> pat_is_catch_all a || pat_is_catch_all b
  | Tpat_value v -> pat_is_catch_all (v :> Typedtree.pattern)
  | _ -> false

let rec pat_catches_all_exceptions : type k. k Typedtree.general_pattern -> bool
    =
 fun p ->
  match p.pat_desc with
  | Tpat_exception inner -> pat_is_catch_all inner
  | Tpat_or (a, b, _) ->
    pat_catches_all_exceptions a || pat_catches_all_exceptions b
  | Tpat_alias (p, _, _) -> pat_catches_all_exceptions p
  | Tpat_value v -> pat_catches_all_exceptions (v :> Typedtree.pattern)
  | _ -> false

let kind_noun = function
  | Lint_callgraph.Clock -> "a wall-clock read"
  | Lint_callgraph.Rand -> "ambient random/domain state"
  | Lint_callgraph.Order -> "unordered Hashtbl iteration"

let check_ident ctx (path : Path.t) (e : Typedtree.expression) =
  let name = Path.name path in
  let loc = e.exp_loc in
  let report rule fmt = report ~active:ctx.active ~allows:ctx.allows rule loc fmt in
  if List.mem name Lint_callgraph.d1_idents then
    report D1
      "wall-clock read `%s` — simulated time must come from the engine clock"
      name;
  if Lint_callgraph.d2_violation name then
    report D2
      "global Random state `%s` — thread a seeded Random.State/Simnet.Rng \
       from the runner instead"
      name;
  if List.mem name Lint_callgraph.d3_idents then
    report D3
      "`%s`: Hashtbl iteration order is nondeterministic — materialize and \
       sort before the result can reach a protocol decision or trace event"
      name;
  if List.mem name p2_idents then
    report P2 "stdout write `%s` — library output goes through Probe/Report"
      name;
  if u1_violation name then
    report U1
      "unchecked access `%s` — prove the bounds locally, assert them under \
       the soda-debug profile, and [@lint.allow \"U1: why\"]"
      name;
  (match p1_subject_type name e.exp_type with
  | None -> ()
  | Some subject when compiler_specializes name subject -> ()
  | Some subject when is_type_variable subject && not (physical name) ->
    report P1
      "polymorphic `%s` at type variable %s — the compiler cannot \
       specialize it, so it calls the generic structural walker; annotate \
       the compared values' type or use a dedicated comparator"
      name (type_to_string subject)
  | Some subject -> (
    match imm_of ~stack:ctx.stack ~fuel:16 subject with
    | NonImm ->
      report P1
        "polymorphic `%s` at non-immediate type %s — use a dedicated \
         comparator (Tag.compare, Float.compare, String.equal, ...)"
        name (type_to_string subject)
    | Imm | Unknown -> ()));
  (* T-rules: a reference to a definition the fixpoint proved reaches a
     nondeterminism effect. Self-references (recursion, the def's own
     body) are skipped: the D-rule already fired at the seed. *)
  if Lint_callgraph.seed_of_ident name = None then
    match Lint_callgraph.taint_of ~stack:ctx.stack name with
    | Some (canon, taints) when ctx.current_def <> Some canon ->
      List.iter
        (fun (kind, chain) ->
          report
            (Lint_callgraph.kind_rule kind)
            "`%s` transitively reaches %s (%s) — hoist the effect to the \
             caller or audit the callee with [@lint.allow \"%s: why\"]"
            (short_name canon) (kind_noun kind)
            (String.concat " -> " (short_name canon :: chain))
            (Lint_callgraph.kind_direct_id kind))
        taints
    | _ -> ()

let check_top_level_binding ctx (vb : Typedtree.value_binding) =
  let rec vars_of :
      type k.
      k Typedtree.general_pattern -> (string * Types.type_expr * Location.t) list
      =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> [ (Ident.name id, p.pat_type, p.pat_loc) ]
    | Tpat_alias (inner, id, _) ->
      (Ident.name id, p.pat_type, p.pat_loc) :: vars_of inner
    | Tpat_tuple ps -> List.concat_map vars_of ps
    | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p) -> vars_of p) fields
    | Tpat_construct (_, _, ps, _) -> List.concat_map vars_of ps
    | Tpat_array ps -> List.concat_map vars_of ps
    | Tpat_or (a, _, _) -> vars_of a
    | Tpat_lazy p -> vars_of p
    | Tpat_value v -> vars_of (v :> Typedtree.pattern)
    | _ -> []
  in
  List.iter
    (fun (name, ty, loc) ->
      if is_mutable ~stack:ctx.stack ~fuel:16 ty then
        report ~active:ctx.active ~allows:ctx.allows R1 loc
          "top-level mutable state `%s : %s` — shared across domains this is \
           a data race; allocate it per run/per domain, or [@lint.allow \
           \"R1: why\"]"
          name (type_to_string ty))
    (vars_of vb.vb_pat)

let lint ~active ~modname (str : Typedtree.structure) =
  let ctx =
    { active;
      allows = Allows.create ();
      stack = [ modname ];
      expr_depth = 0;
      current_def = None
    }
  in
  (* file-wide [@@@lint.allow "..."] floating attributes *)
  let file_allows =
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_attribute a -> Allows.of_attributes [ a ]
        | _ -> [])
      str.str_items
  in
  push ctx file_allows;
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    let ids = Allows.of_attributes e.exp_attributes in
    push ctx ids;
    ctx.expr_depth <- ctx.expr_depth + 1;
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> check_ident ctx path e
    | Texp_try (_, cases) ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          if c.c_guard = None && pat_is_catch_all c.c_lhs then
            report ~active:ctx.active ~allows:ctx.allows E1 c.c_lhs.pat_loc
              "catch-all exception handler — swallows Out_of_memory and \
               Assert_failure; match the specific exceptions instead")
        cases
    | Texp_match (_, cases, _) ->
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          if c.c_guard = None && pat_catches_all_exceptions c.c_lhs then
            report ~active:ctx.active ~allows:ctx.allows E1 c.c_lhs.pat_loc
              "catch-all `exception _` case — swallows Out_of_memory and \
               Assert_failure; match the specific exceptions instead")
        cases
    | _ -> ());
    super.expr sub e;
    ctx.expr_depth <- ctx.expr_depth - 1;
    pop ctx ids
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let ids = Allows.of_attributes vb.vb_attributes in
    push ctx ids;
    (* track the enclosing module-level def so T-rules can skip
       self-references; mirrors Lint_callgraph.binding_name *)
    let saved = ctx.current_def in
    (if ctx.expr_depth = 0 then
       match Lint_callgraph.binding_name vb with
       | Some n ->
         ctx.current_def <-
           Some (String.concat "." (List.rev (n :: ctx.stack)))
       | None -> ());
    super.value_binding sub vb;
    ctx.current_def <- saved;
    pop ctx ids
  in
  let structure_item sub (item : Typedtree.structure_item) =
    (match item.str_desc with
    | Tstr_primitive vd ->
      let ids = Allows.of_attributes vd.val_attributes in
      push ctx ids;
      if u1_unchecked_primitive vd.val_prim then
        report ~active:ctx.active ~allows:ctx.allows U1 vd.val_loc
          "unchecked primitive external `%s` (%s) — document the bounds \
           argument, assert it under the soda-debug profile, and \
           [@@lint.allow \"U1: why\"]"
          vd.val_name.txt
          (String.concat ", " vd.val_prim);
      pop ctx ids
    | Tstr_value (_, vbs) when ctx.expr_depth = 0 ->
      (* module-initialization-time bindings: R1 *)
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let ids = Allows.of_attributes vb.vb_attributes in
          Allows.push ctx.allows ids;
          check_top_level_binding ctx vb;
          Allows.pop ctx.allows ids)
        vbs
    | _ -> ());
    super.structure_item sub item
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
    ctx.stack <- name :: ctx.stack;
    super.module_binding sub mb;
    ctx.stack <- List.tl ctx.stack
  in
  let iter =
    { super with expr; value_binding; structure_item; module_binding }
  in
  iter.structure iter str;
  pop ctx file_allows
