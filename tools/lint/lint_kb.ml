(* soda-lint shared substrate: the rule table and per-directory scoping,
   the diagnostics store, the [@lint.allow "RULE: why"] machinery, and
   the cross-unit knowledge base of type declarations and module aliases
   that every pass resolves names through.

   The linter is multi-pass (see soda_lint.ml for the driver): pass 1
   harvests this knowledge base plus the call graph and protocol tables
   from every unit, the analysis passes close them (taint fixpoint,
   alias summaries), and pass 2 walks the scoped units reporting
   diagnostics. This module is the part every pass shares. *)

(* ------------------------------------------------------------------ *)
(* Rules *)

type rule =
  | D1 (* wall-clock read *)
  | D2 (* global Random state *)
  | D3 (* Hashtbl iteration order feeding decisions *)
  | P1 (* polymorphic compare at non-immediate type *)
  | P2 (* stdout write in library code *)
  | R1 (* top-level mutable state *)
  | E1 (* catch-all exception handler *)
  | U1 (* unchecked access / primitive *)
  | S1 (* suppression without a reason string *)
  | M1 (* protocol constructor without / violating its route spec *)
  | M2 (* sent-but-never-handled dead message *)
  | M3 (* handled-but-never-sent dead handler *)
  | M4 (* nested envelope payload *)
  | A1 (* buffer mutated after it was published *)
  | T1 (* transitively reaches a wall-clock read *)
  | T2 (* transitively reaches ambient random / domain state *)
  | T3 (* transitively reaches unordered Hashtbl iteration *)
  | X1 (* exported value no other unit references *)
  | O1 (* optional parameter no application supplies *)

let all_rules =
  [ D1; D2; D3; P1; P2; R1; E1; U1; S1; M1; M2; M3; M4; A1; T1; T2; T3; X1;
    O1 ]

let rule_id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | P1 -> "P1"
  | P2 -> "P2"
  | R1 -> "R1"
  | E1 -> "E1"
  | U1 -> "U1"
  | S1 -> "S1"
  | M1 -> "M1"
  | M2 -> "M2"
  | M3 -> "M3"
  | M4 -> "M4"
  | A1 -> "A1"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"
  | X1 -> "X1"
  | O1 -> "O1"

(* ------------------------------------------------------------------ *)
(* Scoping: which rules apply to a source file, by directory.

   D3/T3 only have teeth where a fold/iter result can feed a protocol
   decision or a trace event; the numeric libraries iterate tables in
   ways that never escape into message ordering. Executables own their
   stdout (no P2) and their Arg/Cmdliner refs (no R1 in bin/), and the
   benches' whole job is wall-clock timing (no D1/T1 in bench/). *)

let d3_libs = [ "soda"; "simnet"; "baselines"; "harness" ]

let protocol_rules = [ M1; M2; M3; M4 ]

let lib_rules l =
  let base =
    [ D1; D2; P1; P2; R1; E1; U1; S1; T1; T2; A1; X1; O1 ] @ protocol_rules
  in
  if List.mem l d3_libs then D3 :: T3 :: base else base

let scope_of_source ~all source =
  if all then all_rules
  else
    let parts = String.split_on_char '/' source in
    let rec find = function
      | "lib" :: l :: _ :: _ -> lib_rules l
      | "bin" :: _ :: _ -> [ D1; D2; D3; P1; E1; U1; S1; T1; T2; T3; M4 ]
      | "bench" :: _ :: _ -> [ D2; D3; P1; E1; U1; S1; T2; T3; M4 ]
      | "tools" :: "bench_diff" :: _ :: _ ->
        [ D1; D2; D3; P1; E1; U1; S1; T1; T2; T3 ]
      | _ :: rest -> find rest
      | [] -> []
    in
    find parts

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

type diag = { file : string; line : int; col : int; rule : rule; msg : string }

let diags : diag list ref = ref []
let suppressed = ref 0

let diag_compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> (
        match compare (rule_id a.rule) (rule_id b.rule) with
        | 0 -> String.compare a.msg b.msg
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let add_diag rule (loc : Location.t) msg =
  let p = loc.loc_start in
  diags :=
    { file = p.pos_fname;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      rule;
      msg
    }
    :: !diags

let sorted_diags () =
  (* the same site can be rediscovered by the harvest and report passes;
     dedup on the full tuple *)
  List.sort_uniq diag_compare !diags

(* ------------------------------------------------------------------ *)
(* The [@lint.allow "RULE ...: why"] opt-out.

   The payload is "<ids>: <reason>": one or more rule ids (space or
   comma separated, or "all"), a colon, and a human reason. A payload
   with no reason still suppresses (so a bad annotation cannot unmask a
   known, audited site) but is itself an S1 diagnostic — suppressions
   must say why. *)

module Allows = struct
  type entry = {
    ids : string list;
    reason : string option;
    loc : Location.t;
    attr_name : string (* "lint.allow" or "lint.ignore" *)
  }

  let parse_payload (p : Parsetree.payload) : (string list * string option) option =
    match p with
    | PStr
        [ { pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _
          }
        ] ->
      let ids_part, reason =
        match String.index_opt s ':' with
        | Some i ->
          let r = String.sub s (i + 1) (String.length s - i - 1) in
          let r = String.trim r in
          (String.sub s 0 i, if r = "" then None else Some r)
        | None -> (s, None)
      in
      let ids =
        String.split_on_char ' ' ids_part
        |> List.concat_map (String.split_on_char ',')
        |> List.filter (fun s -> s <> "")
      in
      Some (ids, reason)
    | _ -> Some ([], None)

  let of_attributes ?(names = [ "lint.allow" ]) (attrs : Typedtree.attributes) :
      entry list =
    List.filter_map
      (fun (a : Parsetree.attribute) ->
        if List.mem a.attr_name.txt names then
          match parse_payload a.attr_payload with
          | Some (ids, reason) ->
            Some { ids; reason; loc = a.attr_loc; attr_name = a.attr_name.txt }
          | None -> None
        else None)
      attrs

  (* nesting-counted active-suppression table *)
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let push (t : t) (entries : entry list) =
    List.iter
      (fun e ->
        List.iter
          (fun id ->
            let n = Option.value ~default:0 (Hashtbl.find_opt t id) in
            Hashtbl.replace t id (n + 1))
          e.ids)
      entries

  let pop (t : t) (entries : entry list) =
    List.iter
      (fun e ->
        List.iter
          (fun id ->
            match Hashtbl.find_opt t id with
            | Some 1 -> Hashtbl.remove t id
            | Some n -> Hashtbl.replace t id (n - 1)
            | None -> ())
          e.ids)
      entries

  let active (t : t) rule =
    Hashtbl.mem t (rule_id rule) || Hashtbl.mem t "all"
end

(* Report a diagnostic, honoring the rule scope and any suppression in
   force. *)
let report ~(active : rule list) ~(allows : Allows.t) rule (loc : Location.t)
    fmt =
  Format.kasprintf
    (fun msg ->
      if List.mem rule active then
        if Allows.active allows rule then incr suppressed
        else add_diag rule loc msg)
    fmt

(* S1: every suppression must say why. Callers check BEFORE pushing the
   entries, so a bare [@lint.allow "all"] cannot mask its own S1. *)
let check_reasons ~active ~allows (entries : Allows.entry list) =
  List.iter
    (fun (e : Allows.entry) ->
      if e.reason = None then
        let ids = String.concat " " e.ids in
        report ~active ~allows S1 e.loc
          "suppression [@%s \"%s\"] without a reason — write [@%s \"%s: \
           why\"]"
          e.attr_name ids e.attr_name ids)
    entries

(* ------------------------------------------------------------------ *)
(* Knowledge base of type declarations and module aliases.

   Use sites name types through paths ("Tag.t", "Protocol__Tag.t",
   "Protocol.Tag.t" are all the same type depending on how the source
   spelled it and what the typechecker normalized), so the kb keys
   declarations by their canonical dotted name rooted at the compilation
   unit, and keeps a module-alias table (harvested from both user code
   and dune's generated wrapper modules) to canonicalize use-site
   names. *)

type decl =
  | Variant_const (* all constructors constant: immediate at runtime *)
  | Variant_boxed
  | Record of { mut : bool }
  | Alias of Types.type_expr
  | Opaque
  | Immediate_attr

let decls : (string, decl) Hashtbl.t = Hashtbl.create 512
let mod_aliases : (string, string) Hashtbl.t = Hashtbl.create 128

(* named module types, for what a functor argument or a packed module
   must provide *)
let modtypes : (string, Types.module_type) Hashtbl.t = Hashtbl.create 32

let has_attr names attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> List.mem a.attr_name.txt names)
    attrs

let classify_type_decl (td : Typedtree.type_declaration) : decl =
  if has_attr [ "immediate"; "ocaml.immediate" ] td.typ_attributes then
    Immediate_attr
  else
    match td.typ_kind with
    | Ttype_variant cds ->
      let constant (cd : Typedtree.constructor_declaration) =
        match cd.cd_args with Cstr_tuple [] -> true | _ -> false
      in
      if List.for_all constant cds then Variant_const else Variant_boxed
    | Ttype_record lds ->
      let mut =
        List.exists
          (fun (ld : Typedtree.label_declaration) ->
            ld.ld_mutable = Asttypes.Mutable)
          lds
      in
      Record { mut }
    | Ttype_open -> Variant_boxed
    | Ttype_abstract -> (
      match td.typ_manifest with
      | Some ct -> Alias ct.Typedtree.ctyp_type
      | None -> Opaque)

let rec harvest_structure ~stack (str : Typedtree.structure) =
  List.iter (harvest_item ~stack) str.str_items

and harvest_item ~stack (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_type (_, tds) ->
    List.iter
      (fun (td : Typedtree.type_declaration) ->
        let name = String.concat "." (List.rev (td.typ_name.txt :: stack)) in
        Hashtbl.replace decls name (classify_type_decl td))
      tds
  | Tstr_modtype { mtd_type = Some mty; mtd_name; _ } ->
    let name = String.concat "." (List.rev (mtd_name.txt :: stack)) in
    Hashtbl.replace modtypes name mty.mty_type
  | Tstr_module mb -> harvest_module ~stack mb
  | Tstr_recmodule mbs -> List.iter (harvest_module ~stack) mbs
  | _ -> ()

and harvest_module ~stack (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id ->
    let name = Ident.name id in
    harvest_module_expr ~stack ~name mb.mb_expr

and harvest_module_expr ~stack ~name (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) ->
    let key = String.concat "." (List.rev (name :: stack)) in
    Hashtbl.replace mod_aliases key (Path.name p)
  | Tmod_structure str -> harvest_structure ~stack:(name :: stack) str
  | Tmod_constraint (me, _, _, _) -> harvest_module_expr ~stack ~name me
  | Tmod_functor (_, me) ->
    (* functor bodies are harvested under the functor's own name; good
       enough for types referenced from within the same body *)
    harvest_module_expr ~stack ~name me
  | Tmod_apply (f, _, _) | Tmod_apply_unit f ->
    (* an instance aliases its functor, so a use of [P.v] after
       [module P = M.Make (A)] canonicalizes to [M.Make.v] — the name
       the functor body's own definitions carry *)
    harvest_module_expr ~stack ~name f
  | Tmod_unpack _ -> ()

(* Longest-prefix canonicalization through the alias table: resolves
   "Tag.t" (via a local [module Tag = Protocol.Tag]) and "Protocol.Tag.t"
   (via the generated wrapper) down to "Protocol__Tag.t". *)
let canonicalize name =
  let rec go fuel name =
    if fuel = 0 then name
    else
      let parts = String.split_on_char '.' name in
      let n = List.length parts in
      let rec try_prefix i =
        if i <= 0 then None
        else
          let prefix =
            String.concat "." (List.filteri (fun j _ -> j < i) parts)
          and rest = List.filteri (fun j _ -> j >= i) parts in
          match Hashtbl.find_opt mod_aliases prefix with
          | Some repl -> Some (String.concat "." (repl :: rest))
          | None -> try_prefix (i - 1)
      in
      match try_prefix (n - 1) with
      | Some name' when name' <> name -> go (fuel - 1) name'
      | _ -> name
  in
  go 8 name

(* Candidate canonical names of a use-site name, qualified with the
   enclosing module stack, innermost qualification first and the bare
   name last (a local [t] inside module [X] of unit [M] is registered as
   "M.X.t" but referenced as "t"). *)
let qualified_candidates ~stack name =
  let rec prefixes acc = function
    | [] -> List.rev (name :: acc)
    | _ :: _ as stack ->
      let q = String.concat "." (List.rev stack) ^ "." ^ name in
      prefixes (q :: acc) (List.tl stack)
  in
  List.map canonicalize (prefixes [] stack)

let lookup_decl ~stack name =
  let rec first = function
    | [] -> None
    | c :: rest -> (
      match Hashtbl.find_opt decls c with Some d -> Some d | None -> first rest)
  in
  first (qualified_candidates ~stack name)

(* ------------------------------------------------------------------ *)
(* Type classification *)

type imm = Imm | NonImm | Unknown

let predef_imm =
  [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit ]

let predef_nonimm =
  [ Predef.path_float; Predef.path_string; Predef.path_bytes;
    Predef.path_array; Predef.path_list; Predef.path_option;
    Predef.path_nativeint; Predef.path_int32; Predef.path_int64;
    Predef.path_lazy_t; Predef.path_floatarray; Predef.path_exn ]

let nonimm_names =
  [ "Stdlib.ref"; "ref"; "Stdlib.Hashtbl.t"; "Hashtbl.t"; "Stdlib.Buffer.t";
    "Stdlib.Queue.t"; "Stdlib.Stack.t"; "Stdlib.Atomic.t"; "Stdlib.result";
    "result"; "Stdlib.Either.t"; "Stdlib.Seq.t" ]

let rec imm_of ~stack ~fuel (ty : Types.type_expr) : imm =
  if fuel = 0 then Unknown
  else
    match Types.get_desc ty with
    | Tconstr (p, _, _) ->
      if List.exists (Path.same p) predef_imm then Imm
      else if List.exists (Path.same p) predef_nonimm then NonImm
      else
        let name = Path.name p in
        if List.mem name nonimm_names then NonImm
        else (
          match lookup_decl ~stack name with
          | Some d -> imm_of_decl ~stack ~fuel:(fuel - 1) d
          | None -> Unknown)
    | Ttuple _ | Tarrow _ | Tobject _ | Tfield _ | Tnil | Tpackage _ -> NonImm
    | Tvariant _ | Tvar _ | Tunivar _ -> Unknown
    | Tpoly (t, _) -> imm_of ~stack ~fuel:(fuel - 1) t
    | Tlink t | Tsubst (t, _) -> imm_of ~stack ~fuel:(fuel - 1) t

and imm_of_decl ~stack ~fuel = function
  | Variant_const | Immediate_attr -> Imm
  | Variant_boxed | Record _ -> NonImm
  | Alias ty -> imm_of ~stack ~fuel ty
  | Opaque -> Unknown

let mutable_container_names =
  [ "Stdlib.ref"; "ref"; "Stdlib.Hashtbl.t"; "Hashtbl.t"; "Stdlib.Buffer.t";
    "Stdlib.Queue.t"; "Stdlib.Stack.t"; "Stdlib.Atomic.t"; "Stdlib.Weak.t";
    "Stdlib.Lazy.t"; "lazy_t" ]

let mutable_predefs =
  [ Predef.path_array; Predef.path_bytes; Predef.path_floatarray;
    Predef.path_lazy_t ]

(* Is a value of this type mutable state (so that sharing it across
   domains is a data race)? [false] on Unknown: R1 is a high-signal rule
   and opaque types get the benefit of the doubt. *)
let rec is_mutable ~stack ~fuel (ty : Types.type_expr) : bool =
  if fuel = 0 then false
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) ->
      if List.exists (Path.same p) mutable_predefs then true
      else if Path.same p Predef.path_list || Path.same p Predef.path_option
      then List.exists (is_mutable ~stack ~fuel:(fuel - 1)) args
      else
        let name = Path.name p in
        if List.mem name mutable_container_names then true
        else (
          match lookup_decl ~stack name with
          | Some (Record { mut }) -> mut
          | Some (Alias ty) -> is_mutable ~stack ~fuel:(fuel - 1) ty
          | Some (Variant_const | Variant_boxed | Opaque | Immediate_attr) ->
            false
          | None -> false)
    | Ttuple tys -> List.exists (is_mutable ~stack ~fuel:(fuel - 1)) tys
    | Tlink t | Tsubst (t, _) | Tpoly (t, _) ->
      is_mutable ~stack ~fuel:(fuel - 1) t
    | _ -> false

let type_to_string ty =
  (* best-effort pretty type for messages; internal ids are fine *)
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "<type>"

(* ------------------------------------------------------------------ *)
(* Path-suffix matching, dune-wrapper aware: "Fragment.data" matches
   "Erasure__Fragment.data", "Fragment.data" and "Stdlib.Bytes.set"
   matches suffix "Bytes.set". *)

let component_matches ~want got =
  got = want
  ||
  let wn = String.length want and gn = String.length got in
  gn > wn + 2
  && String.sub got (gn - wn) wn = want
  && String.sub got (gn - wn - 2) 2 = "__"

let path_has_suffix ~suffix name =
  let sp = List.rev (String.split_on_char '.' suffix) in
  let np = List.rev (String.split_on_char '.' name) in
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | [ want ], got :: _ -> component_matches ~want got
    | want :: ws, got :: gs -> want = got && go (ws, gs)
  in
  go (sp, np)

(* Last two components of a dotted path, for short display. *)
let short_name name =
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ -> m ^ "." ^ f
  | _ -> name
