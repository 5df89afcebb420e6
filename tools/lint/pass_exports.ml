(* X1: dead exports. Every [val] of a scoped interface (lib/*/*.mli)
   must be referenced by some other unit in lib/, bin/, bench/, perf/,
   examples/ or tools/ — the references Lint_callgraph harvested, so an
   alias, a functor argument or a packed module counts. A value only
   the tests use is either deleted or carries [@@lint.allow "X1: why"]
   naming it a test oracle or state probe; a floating
   [@@@lint.allow "X1: why"] covers a whole test-model unit. The [val]s
   of an [include]d signature count as the unit's own; they are
   reported at the include, which carries their allow.

   O1: dead options, X1's twin. Every optional parameter of such a
   [val] must be supplied by some application in those units, its own
   unit included: [~x], [~x:e], [?x] or [?x:e]. A value used other than
   as an application's head — aliased, passed as an argument, packed, or
   required by a functor argument — has every option counted as
   supplied, so the rule never guesses. An option only tests supply
   carries [@@lint.allow "O1: why"] naming the test. *)

open Lint_kb

(* "Soda__Server.Set.mem" -> "Server.Set.mem" *)
let display name =
  match String.split_on_char '.' name with
  | unit :: rest ->
    let n = String.length unit in
    let rec last_sep i =
      if i < 1 then unit
      else if unit.[i] = '_' && unit.[i - 1] = '_' then
        String.sub unit (i + 1) (n - i - 1)
      else last_sep (i - 1)
    in
    String.concat "." (last_sep (n - 1) :: rest)
  | [] -> name

(* The values a module declaration exports: its signature's, or — for a
   functor — its result signature's, which every instance shares (an
   instance [module P = M.Make (A)] is an alias of [M.Make] to the kb). *)
let rec body (mty : Typedtree.module_type) =
  match mty.mty_desc with
  | Tmty_signature sg -> Some sg
  | Tmty_functor (_, res) -> body res
  | _ -> None

(* the optional labels of a function type, in order *)
let rec options (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: options ret
  | Tarrow (_, _, ret, _) -> options ret
  | _ -> []

let check ~all ~source ~modname (sg : Typedtree.signature) =
  let active = scope_of_source ~all source in
  if List.mem X1 active || List.mem O1 active then begin
    let allows = Allows.create () in
    let with_allows entries f =
      check_reasons ~active ~allows entries;
      Allows.push allows entries;
      f ();
      Allows.pop allows entries
    in
    let dirs = String.concat "/, " Lint_callgraph.use_dirs ^ "/" in
    let check_value prefix loc v ty =
      let name = prefix ^ "." ^ v in
      if not (Hashtbl.mem Lint_callgraph.used name) then
        report ~active ~allows X1 loc
          "`%s` is exported but no other unit in %s references it — delete \
           it or drop its [val]; a test oracle, state probe or fault hook \
           carries [@@@@lint.allow \"X1: why\"]"
          (display name) dirs;
      if not (Hashtbl.mem Lint_callgraph.escaped name) then
        List.iter
          (fun l ->
            if not (Hashtbl.mem Lint_callgraph.supplied (name, l)) then
              report ~active ~allows O1 loc
                "no application in %s supplies `%s`'s option ?%s — make its \
                 default a constant; an option only tests supply carries \
                 [@@@@lint.allow \"O1: why\"]"
                dirs (display name) l)
          (options ty)
    in
    let rec items prefix (sg : Typedtree.signature) =
      List.iter
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd ->
            with_allows (Allows.of_attributes vd.val_attributes) (fun () ->
                check_value prefix vd.val_loc vd.val_name.txt
                  vd.val_desc.ctyp_type)
          | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } ->
            Option.iter (items (prefix ^ "." ^ m)) (body md_type)
          | Tsig_include incl ->
            (* an included signature's [val]s are this unit's exports
               too; they have no declaration here, so the include
               carries their allow and their report *)
            with_allows (Allows.of_attributes incl.incl_attributes)
              (fun () -> included prefix incl.incl_loc incl.incl_type)
          | _ -> ())
        sg.sig_items
    and included prefix loc (sg : Types.signature) =
      List.iter
        (function
          | Types.Sig_value (id, vd, _) ->
            check_value prefix loc (Ident.name id) vd.val_type
          | Types.Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
            included (prefix ^ "." ^ Ident.name id) loc sg
          | _ -> ())
        sg
    in
    let file_allows =
      List.concat_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_attribute a -> Allows.of_attributes [ a ]
          | _ -> [])
        sg.sig_items
    in
    with_allows file_allows (fun () -> items modname sg)
  end
