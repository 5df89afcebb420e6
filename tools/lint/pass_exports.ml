(* X1: dead exports. Every [val] of a scoped interface (lib/*/*.mli)
   must be referenced by some other unit in lib/, bin/, bench/, perf/,
   examples/ or tools/ — the references Lint_callgraph harvested, so an
   alias, a functor argument or a packed module counts. A value only
   the tests use is either deleted or carries [@@lint.allow "X1: why"]
   naming it a test oracle or state probe; a floating
   [@@@lint.allow "X1: why"] covers a whole test-model unit. The [val]s
   of an [include]d signature count as the unit's own; they are
   reported at the include, which carries their allow. *)

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

let check ~all ~source ~modname (sg : Typedtree.signature) =
  let active = scope_of_source ~all source in
  if List.mem X1 active then begin
    let allows = Allows.create () in
    let with_allows entries f =
      check_reasons ~active ~allows entries;
      Allows.push allows entries;
      f ();
      Allows.pop allows entries
    in
    let dead_unless_used prefix loc v =
      let name = prefix ^ "." ^ v in
      if not (Hashtbl.mem Lint_callgraph.used name) then
        report ~active ~allows X1 loc
          "`%s` is exported but no other unit in %s references it — delete \
           it or drop its [val]; a test oracle, state probe or fault hook \
           carries [@@@@lint.allow \"X1: why\"]"
          (display name)
          (String.concat "/, " Lint_callgraph.use_dirs ^ "/")
    in
    let rec items prefix (sg : Typedtree.signature) =
      List.iter
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd ->
            with_allows (Allows.of_attributes vd.val_attributes) (fun () ->
                dead_unless_used prefix vd.val_loc vd.val_name.txt)
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
          | Types.Sig_value (id, _, _) ->
            dead_unless_used prefix loc (Ident.name id)
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
