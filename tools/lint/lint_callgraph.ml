(* Cmt-derived call graph and transitive effect taint (the D-rules v2
   substrate, reported as T1/T2/T3 by Pass_local).

   Pass 1 walks every unit and records, per module-level value binding,
   the set of global identifiers its whole body references (local
   helpers collapse into their enclosing module-level binding). Seeds
   are the nondeterminism effects the local D-rules police — wall-clock
   reads, ambient Random / Domain state, unordered Hashtbl iteration —
   and [solve] closes them over the graph, so a helper two frames deep
   taints every caller that can reach it.

   An effect under an explicit [@lint.allow "D1: why"] (or the matching
   T-rule id) is an audited effect: it does not seed taint, and an
   allow at a call site stops propagation through that edge — the
   suppression is a reviewed claim that the nondeterminism does not
   escape, and the analysis honors it instead of double-reporting. *)

type kind = Clock | Rand | Order

let kind_rule = function
  | Clock -> Lint_kb.T1
  | Rand -> Lint_kb.T2
  | Order -> Lint_kb.T3

(* the local rule whose allow also audits the seed *)
let kind_direct_id = function Clock -> "D1" | Rand -> "D2" | Order -> "D3"
let kind_trans_id k = Lint_kb.rule_id (kind_rule k)

(* ------------------------------------------------------------------ *)
(* Seed classification (shared with Pass_local's direct rules) *)

let d1_idents = [ "Stdlib.Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let d2_violation name =
  let prefixed p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  name = "Stdlib.Random.State.make_self_init"
  || (prefixed "Stdlib.Random." && not (prefixed "Stdlib.Random.State."))

let d3_idents =
  [ "Stdlib.Hashtbl.iter"; "Stdlib.Hashtbl.fold"; "Stdlib.Hashtbl.to_seq";
    "Stdlib.Hashtbl.to_seq_keys"; "Stdlib.Hashtbl.to_seq_values" ]

(* ambient Domain state: machine-dependent answers that vary run to run *)
let domain_idents =
  [ "Stdlib.Domain.self"; "Stdlib.Domain.recommended_domain_count" ]

let seed_of_ident name : (kind * string) option =
  if List.mem name d1_idents then Some (Clock, name)
  else if d2_violation name || List.mem name domain_idents then
    Some (Rand, name)
  else if List.mem name d3_idents then Some (Order, name)
  else None

(* ------------------------------------------------------------------ *)
(* Definition table *)

type ref_info = {
  ref_name : string; (* as spelled by the typechecker *)
  exempt : kind list (* kinds whose propagation an allow stops here *)
}

type def = {
  def_name : string; (* canonical dotted name *)
  def_stack : string list; (* enclosing module path, for resolution *)
  mutable refs : ref_info list;
  mutable direct : (kind * string) list (* unaudited seeds in the body *)
}

let defs : (string, def) Hashtbl.t = Hashtbl.create 1024

(* taint verdicts after [solve]: canonical def name -> per-kind chain of
   canonical names from the def down to the seed ident *)
let taints : (string, (kind * string list) list) Hashtbl.t = Hashtbl.create 256

(* ------------------------------------------------------------------ *)
(* Pass 1 harvest *)

(* X1's substrate: canonical names of the values that some unit other
   than their own references, counted only from the directories whose
   uses keep an export alive (test/ does not). A reference through a
   module alias counts once the kb canonicalizes it; a functor argument
   or a packed module uses every value its module type asks for. *)
let use_dirs = [ "lib"; "bin"; "bench"; "perf"; "examples"; "tools" ]
let used : (string, unit) Hashtbl.t = Hashtbl.create 4096

(* O1's substrate, from the same units, a value's own included: the
   (value, label) pairs some application supplies as [~x], [~x:e], [?x]
   or [?x:e], and the values used other than as an application's head
   (aliased, passed, packed or required by a functor argument), whose
   every option counts as supplied. *)
let supplied : (string * string, unit) Hashtbl.t = Hashtbl.create 1024
let escaped : (string, unit) Hashtbl.t = Hashtbl.create 1024

type hctx = {
  allows : Lint_kb.Allows.t;
  modname : string;
  user : bool; (* this unit's references keep exports alive *)
  mutable head : Typedtree.expression option;
      (* the applied identifier the iterator is about to visit *)
  mutable stack : string list;
  mutable current : def option;
  mutable depth : int
}

let exempt_kinds allows =
  List.filter
    (fun k ->
      Hashtbl.mem allows (kind_direct_id k)
      || Hashtbl.mem allows (kind_trans_id k)
      || Hashtbl.mem allows "all")
    [ Clock; Rand; Order ]

let record_use ctx name =
  if ctx.user then
    List.iter
      (fun c ->
        match String.index_opt c '.' with
        | Some i when String.sub c 0 i <> ctx.modname ->
          Hashtbl.replace used c ()
        | _ -> ())
      (Lint_kb.qualified_candidates ~stack:ctx.stack name)

let record_escape ctx name =
  if ctx.user then
    List.iter
      (fun c -> Hashtbl.replace escaped c ())
      (Lint_kb.qualified_candidates ~stack:ctx.stack name)

(* An argument for an optional parameter carries [Optional l] however
   the caller spelled it; one the caller omitted is filled with a [None]
   at no location. *)
let record_labels ctx name args =
  if ctx.user then
    List.iter
      (fun ((label : Asttypes.arg_label), (arg : Typedtree.expression option)) ->
        match (label, arg) with
        | Optional l, Some e when not (Location.is_none e.exp_loc) ->
          List.iter
            (fun c -> Hashtbl.replace supplied (c, l) ())
            (Lint_kb.qualified_candidates ~stack:ctx.stack name)
        | _ -> ())
      args

let lookup_modtype ~stack name =
  List.find_map
    (Hashtbl.find_opt Lint_kb.modtypes)
    (Lint_kb.qualified_candidates ~stack name)

(* [prefix] must provide every value of [mty], nested modules included *)
let rec require ctx ~fuel prefix (mty : Types.module_type) =
  if fuel > 0 then
    match mty with
    | Mty_signature sg ->
      List.iter
        (function
          | Types.Sig_value (id, _, _) ->
            record_use ctx (prefix ^ "." ^ Ident.name id);
            record_escape ctx (prefix ^ "." ^ Ident.name id)
          | Types.Sig_module (id, _, md, _, _) ->
            require ctx ~fuel:(fuel - 1)
              (prefix ^ "." ^ Ident.name id)
              md.md_type
          | _ -> ())
        sg
    | Mty_ident p -> (
      match lookup_modtype ~stack:ctx.stack (Path.name p) with
      | Some mty -> require ctx ~fuel:(fuel - 1) prefix mty
      | None -> ())
    | _ -> ()

let rec module_path (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (Path.name p)
  | Tmod_constraint (me, _, _, _) -> module_path me
  | _ -> None

let require_module ctx (me : Typedtree.module_expr) mty =
  Option.iter (fun p -> require ctx ~fuel:8 p mty) (module_path me)

let record_ident ctx ~scope name =
  record_use ctx name;
  match ctx.current with
  | None -> ()
  | Some def -> (
    match seed_of_ident name with
    | Some (kind, seed) ->
      (* a seed only seeds taint where its own D-rule has teeth: a
         Hashtbl.fold in the numeric libraries is out of scope by
         design and must not taint its soda callers *)
      let in_scope =
        List.mem
          (match kind with
          | Clock -> Lint_kb.D1
          | Rand -> Lint_kb.D2
          | Order -> Lint_kb.D3)
          scope
      in
      if in_scope && not (List.mem kind (exempt_kinds ctx.allows)) then
        def.direct <- (kind, seed) :: def.direct
    | None ->
      (* only user code can be a taint carrier; stdlib values that are
         not seeds are effect-free for our purposes *)
      if not (String.length name >= 7 && String.sub name 0 7 = "Stdlib.") then
        def.refs <- { ref_name = name; exempt = exempt_kinds ctx.allows }
                    :: def.refs)

let binding_name (vb : Typedtree.value_binding) =
  (* name a module-level binding by its first bound variable; anonymous
     or unit bindings contribute no def *)
  let rec first : type k. k Typedtree.general_pattern -> string option =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> Some (Ident.name id)
    | Tpat_alias (_, id, _) -> Some (Ident.name id)
    | Tpat_tuple ps -> List.find_map first ps
    | Tpat_construct (_, _, ps, _) -> List.find_map first ps
    | Tpat_value v -> first (v :> Typedtree.pattern)
    | _ -> None
  in
  first vb.vb_pat

let harvest ~all ~source ~modname (str : Typedtree.structure) =
  let scope = Lint_kb.scope_of_source ~all source in
  let ctx =
    { allows = Lint_kb.Allows.create ();
      modname;
      user = List.mem (List.hd (String.split_on_char '/' source)) use_dirs;
      head = None;
      stack = [ modname ];
      current = None;
      depth = 0
    }
  in
  let file_allows =
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_attribute a -> Lint_kb.Allows.of_attributes [ a ]
        | _ -> [])
      str.str_items
  in
  Lint_kb.Allows.push ctx.allows file_allows;
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    let ids = Lint_kb.Allows.of_attributes e.exp_attributes in
    Lint_kb.Allows.push ctx.allows ids;
    (match e.exp_desc with
    | Texp_ident (path, _, _) ->
      let name = Path.name path in
      record_ident ctx ~scope name;
      if not (Option.fold ~none:false ~some:(( == ) e) ctx.head) then
        record_escape ctx name
    | Texp_apply (({ exp_desc = Texp_ident (path, _, _); _ } as f), args) ->
      record_labels ctx (Path.name path) args;
      ctx.head <- Some f
    | Texp_pack me -> (
      match Types.get_desc e.exp_type with
      | Tpackage (p, _) -> require_module ctx me (Mty_ident p)
      | _ -> ())
    | _ -> ());
    super.expr sub e;
    Lint_kb.Allows.pop ctx.allows ids
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let ids = Lint_kb.Allows.of_attributes vb.vb_attributes in
    Lint_kb.Allows.push ctx.allows ids;
    (if ctx.depth = 0 then
       match binding_name vb with
       | Some name ->
         let def_name = String.concat "." (List.rev (name :: ctx.stack)) in
         let def =
           { def_name; def_stack = ctx.stack; refs = []; direct = [] }
         in
         Hashtbl.replace defs def_name def;
         ctx.current <- Some def;
         ctx.depth <- ctx.depth + 1;
         super.value_binding sub vb;
         ctx.depth <- ctx.depth - 1;
         ctx.current <- None
       | None ->
         ctx.depth <- ctx.depth + 1;
         super.value_binding sub vb;
         ctx.depth <- ctx.depth - 1
     else super.value_binding sub vb);
    Lint_kb.Allows.pop ctx.allows ids
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
    let saved_current = ctx.current and saved_depth = ctx.depth in
    ctx.current <- None;
    ctx.depth <- 0;
    ctx.stack <- name :: ctx.stack;
    super.module_binding sub mb;
    ctx.stack <- List.tl ctx.stack;
    ctx.current <- saved_current;
    ctx.depth <- saved_depth
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_apply (f, arg, _) -> (
      match f.mod_type with
      | Mty_functor (Named (_, param), _) -> require_module ctx arg param
      | _ -> ())
    | _ -> ());
    super.module_expr sub me
  in
  let iter = { super with expr; value_binding; module_binding; module_expr } in
  iter.structure iter str;
  Lint_kb.Allows.pop ctx.allows file_allows

(* ------------------------------------------------------------------ *)
(* Fixpoint *)

let resolve ~stack name =
  let rec first = function
    | [] -> None
    | c :: rest -> (
      match Hashtbl.find_opt defs c with Some d -> Some d | None -> first rest)
  in
  first (Lint_kb.qualified_candidates ~stack name)

let solve () =
  (* reverse edges: callee canonical name -> (caller def, exempt kinds) *)
  let callers : (string, (def * kind list) list) Hashtbl.t =
    Hashtbl.create 1024
  in
  Hashtbl.iter
    (fun _ def ->
      List.iter
        (fun r ->
          match resolve ~stack:def.def_stack r.ref_name with
          | Some callee when callee.def_name <> def.def_name ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt callers callee.def_name)
            in
            Hashtbl.replace callers callee.def_name ((def, r.exempt) :: prev)
          | _ -> ())
        def.refs)
    defs;
  let tainted (name : string) (k : kind) =
    match Hashtbl.find_opt taints name with
    | Some l -> List.mem_assoc k l
    | None -> false
  in
  let queue = Queue.create () in
  let set_taint name k chain =
    let prev = Option.value ~default:[] (Hashtbl.find_opt taints name) in
    Hashtbl.replace taints name ((k, chain) :: prev);
    Queue.add (name, k, chain) queue
  in
  Hashtbl.iter
    (fun _ def ->
      List.iter
        (fun (k, seed) ->
          if not (tainted def.def_name k) then
            set_taint def.def_name k [ Lint_kb.short_name seed ])
        def.direct)
    defs;
  while not (Queue.is_empty queue) do
    let name, k, chain = Queue.pop queue in
    List.iter
      (fun (caller, exempt) ->
        if (not (List.mem k exempt)) && not (tainted caller.def_name k) then
          set_taint caller.def_name k (Lint_kb.short_name name :: chain))
      (Option.value ~default:[] (Hashtbl.find_opt callers name))
  done

(* Taint of a use-site reference, resolved through the same candidate
   qualification as declarations. Returns the callee's canonical name
   so callers can skip self-references. *)
let taint_of ~stack name : (string * (kind * string list) list) option =
  match resolve ~stack name with
  | None -> None
  | Some def -> (
    match Hashtbl.find_opt taints def.def_name with
    | Some l -> Some (def.def_name, l)
    | None -> None)
