(* A-rules: mutation-after-publish on the zero-copy fragment path.

   A [Fragment.t] holds its payload buffer without copying it, and the
   whole performance story depends on fragments escaping into the
   network ([Engine.send]) and the server stores
   ([Disk.create]/[Disk.store]) WITHOUT a copy, which makes any later
   write through a reachable payload buffer a silent corruption of
   already-published state.

   Per module-level definition, pass 1 records an ordered event list:

     Bind    — a let-binding whose right-hand side ALIASES existing
               locals (plain ident, field access, tuple/record/
               constructor wrapping, or a known alias-producing call
               like [Fragment.make ~data] / [Fragment.data f]); any
               other right-hand side (e.g. [Bytes.sub], [Bytes.copy])
               makes a fresh class, so copies never false-positive
     Publish — a call into a publish sink; every local reachable from
               the sunk arguments is published (a fragment buried in a
               message record still escapes)
     Mutate  — a call to a known buffer mutator; the locals reachable
               from its target argument are written through
     Call    — a call to user code, linked to that definition's
               interprocedural summary (publishes/mutates parameter i)

   The analysis replays each definition's events over a union-find of
   its locals; a Mutate on a published class is A1. Summaries are
   closed by a fixpoint so a helper that flushes buffers through
   [Engine.send] publishes at its call sites, and one that scrubs a
   buffer mutates at its call sites. *)

type target = Pos of int | Lab of string

let publish_sinks =
  [ ("Engine.send", [ Pos 1 ]); (* context, msg — dst is labeled *)
    ("Engine.send_many", [ Pos 1 ]); (* context, msg — the range is labeled *)
    ("Disk.create", [ Lab "fragment" ]);
    ("Disk.store", [ Lab "fragment" ]) ]

(* known alias-producing calls: result aliases this argument *)
let alias_builtins =
  [ ("Fragment.make", Lab "data"); ("Fragment.data", Pos 0) ]

let mutators =
  [ ("Bytes.set", Pos 0); ("Bytes.unsafe_set", Pos 0); ("Bytes.fill", Pos 0);
    ("Bytes.blit", Pos 2); ("Bytes.blit_string", Pos 2);
    ("BytesLabels.blit", Lab "dst");
    ("Wops.xor_into", Lab "dst") ]

let find_builtin table name =
  List.find_map
    (fun (suffix, v) ->
      if Lint_kb.path_has_suffix ~suffix name then Some v else None)
    table

(* ------------------------------------------------------------------ *)
(* Events *)

type event =
  | Bind of string * string list (* new local aliases these locals *)
  | Publish of string list
  | Mutate of string list * string * Location.t * string list
    (* locals written, mutator name, site, active allow-ids snapshot *)
  | Call of string * string list list * Location.t * string list
    (* callee (unresolved), per-positional-argument local sets,
       site, allow snapshot *)

type adef = {
  a_name : string; (* canonical dotted name *)
  a_stack : string list;
  a_source : string;
  a_params : string list; (* parameter local keys, in order *)
  mutable a_events : event list (* reverse order during harvest *)
}

let adefs : (string, adef) Hashtbl.t = Hashtbl.create 512

(* summaries: canonical def name -> (published params, mutated params) *)
let summaries : (string, int list * int list) Hashtbl.t = Hashtbl.create 512

(* ------------------------------------------------------------------ *)
(* Harvest *)

let local_key id = Ident.unique_name id

(* all local (Pident) idents mentioned anywhere in an expression *)
let locals_of (e : Typedtree.expression) : string list =
  let acc = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> acc := local_key id :: !acc
    | _ -> ());
    super.expr sub e
  in
  let iter = { super with expr } in
  iter.expr iter e;
  List.sort_uniq String.compare !acc

let arg_of_target args target =
  match target with
  | Lab l ->
    List.find_map
      (function
        | Asttypes.Labelled l', Some e when l' = l -> Some e | _ -> None)
      args
  | Pos i ->
    let positional =
      List.filter_map
        (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
        args
    in
    List.nth_opt positional i

let rec pat_vars : type k. k Typedtree.general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ local_key id ]
  | Tpat_alias (p, id, _) -> local_key id :: pat_vars p
  | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, p) -> pat_vars p) fields
  | Tpat_or (a, _, _) -> pat_vars a
  | Tpat_lazy p -> pat_vars p
  | Tpat_variant (_, Some p, _) -> pat_vars p
  | Tpat_value v -> pat_vars (v :> Typedtree.pattern)
  | _ -> []

(* does this RHS alias existing locals (as opposed to allocating)?
   Returns the locals it aliases, or [] for a fresh class. *)
let rec alias_sources (e : Typedtree.expression) : string list =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> [ local_key id ]
  | Texp_field (e, _, _) -> alias_sources e
  | Texp_construct (_, _, args) -> List.concat_map locals_of args
  | Texp_record { fields; extended_expression; _ } ->
    let base =
      match extended_expression with Some e -> locals_of e | None -> []
    in
    base
    @ (Array.to_list fields
      |> List.concat_map (fun (_, (ld : Typedtree.record_label_definition)) ->
             match ld with
             | Overridden (_, e) -> locals_of e
             | Kept _ -> []))
  | Texp_tuple es -> List.concat_map locals_of es
  | _ -> []

let texp_apply_alias (e : Typedtree.expression) : string list =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    match find_builtin alias_builtins (Path.name p) with
    | Some target -> (
      match arg_of_target args target with
      | Some arg -> locals_of arg
      | None -> [])
    | None -> [])
  | _ -> []

let harvest ~source ~modname (str : Typedtree.structure) =
  let allows = Lint_kb.Allows.create () in
  let file_allows =
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_attribute a -> Lint_kb.Allows.of_attributes [ a ]
        | _ -> [])
      str.str_items
  in
  Lint_kb.Allows.push allows file_allows;
  let snapshot () =
    List.filter
      (fun id -> Hashtbl.mem allows id)
      [ "A1"; "all" ]
  in
  let stack = ref [ modname ] in
  let current : adef option ref = ref None in
  let depth = ref 0 in
  let emit ev =
    match !current with
    | None -> ()
    | Some d -> d.a_events <- ev :: d.a_events
  in
  let super = Tast_iterator.default_iterator in
  let rec expr sub (e : Typedtree.expression) =
    let ids = Lint_kb.Allows.of_attributes e.exp_attributes in
    Lint_kb.Allows.push allows ids;
    (match e.exp_desc with
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          (* harvest the RHS first (nested publishes/mutations inside
             it must precede the binding), then record the alias edge *)
          expr sub vb.vb_expr;
          let srcs =
            match alias_sources vb.vb_expr with
            | [] -> texp_apply_alias vb.vb_expr
            | srcs -> srcs
          in
          match pat_vars vb.vb_pat with
          | [ v ] -> emit (Bind (v, srcs))
          | vs -> List.iter (fun v -> emit (Bind (v, srcs))) vs)
        vbs;
      expr sub body
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let name = Path.name p in
      List.iter (function _, Some a -> expr sub a | _ -> ()) args;
      (match find_builtin publish_sinks name with
      | Some targets ->
        let published =
          List.concat_map
            (fun t ->
              match arg_of_target args t with
              | Some a -> locals_of a
              | None -> [])
            targets
        in
        if published <> [] then emit (Publish published)
      | None -> (
        match find_builtin mutators name with
        | Some target -> (
          match arg_of_target args target with
          | Some a ->
            let locals = locals_of a in
            if locals <> [] then
              emit
                (Mutate (locals, Lint_kb.short_name name, e.exp_loc,
                         snapshot ()))
          | None -> ())
        | None ->
          if not (String.length name >= 7 && String.sub name 0 7 = "Stdlib.")
          then
            let arg_locals =
              List.filter_map
                (function
                  | Asttypes.Nolabel, Some a | Asttypes.Labelled _, Some a ->
                    Some (locals_of a)
                  | _ -> None)
                args
            in
            emit (Call (name, arg_locals, e.exp_loc, snapshot ()))))
    | Texp_setfield (tgt, _, _, rhs) ->
      (* storing a tracked local into mutable state is an escape we
         cannot follow; treat as publish of the RHS locals only if the
         target is itself published is beyond this pass — skip *)
      expr sub tgt;
      expr sub rhs
    | _ -> super.expr sub e);
    Lint_kb.Allows.pop allows ids
  in
  (* collect curried parameters from the function spine of a binding *)
  let rec spine_params (e : Typedtree.expression) : string list =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } ->
      pat_vars c.c_lhs @
      (match c.c_guard with Some _ -> [] | None -> spine_params c.c_rhs)
    | _ -> []
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let ids = Lint_kb.Allows.of_attributes vb.vb_attributes in
    Lint_kb.Allows.push allows ids;
    (if !depth = 0 then begin
       let name =
         let rec first : type k. k Typedtree.general_pattern -> string option
             =
          fun p ->
           match p.pat_desc with
           | Tpat_var (id, _) -> Some (Ident.name id)
           | Tpat_alias (_, id, _) -> Some (Ident.name id)
           | Tpat_value v -> first (v :> Typedtree.pattern)
           | _ -> None
         in
         first vb.vb_pat
       in
       match name with
       | Some n ->
         let a_name = String.concat "." (List.rev (n :: !stack)) in
         let d =
           { a_name;
             a_stack = !stack;
             a_source = source;
             a_params = spine_params vb.vb_expr;
             a_events = []
           }
         in
         Hashtbl.replace adefs a_name d;
         current := Some d;
         incr depth;
         expr sub vb.vb_expr;
         decr depth;
         current := None
       | None ->
         incr depth;
         expr sub vb.vb_expr;
         decr depth
     end
     else expr sub vb.vb_expr);
    Lint_kb.Allows.pop allows ids
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
    let saved_cur = !current and saved_depth = !depth in
    current := None;
    depth := 0;
    stack := name :: !stack;
    super.module_binding sub mb;
    stack := List.tl !stack;
    current := saved_cur;
    depth := saved_depth
  in
  let iter = { super with expr; value_binding; module_binding } in
  iter.structure iter str;
  Lint_kb.Allows.pop allows file_allows

(* ------------------------------------------------------------------ *)
(* Union-find replay *)

module Uf = struct
  type t = {
    parent : (string, string) Hashtbl.t;
    published : (string, unit) Hashtbl.t (* root -> published *)
  }

  let create () = { parent = Hashtbl.create 64; published = Hashtbl.create 8 }

  let rec find t x =
    match Hashtbl.find_opt t.parent x with
    | None | Some "" -> x
    | Some p when p = x -> x
    | Some p ->
      let r = find t p in
      Hashtbl.replace t.parent x r;
      r

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then begin
      Hashtbl.replace t.parent ra rb;
      if Hashtbl.mem t.published ra then Hashtbl.replace t.published rb ()
    end

  let publish t x = Hashtbl.replace t.published (find t x) ()
  let is_published t x = Hashtbl.mem t.published (find t x)
end

let resolve_callee ~stack name =
  let rec first = function
    | [] -> None
    | c :: rest -> (
      match Hashtbl.find_opt adefs c with
      | Some d -> Some d
      | None -> first rest)
  in
  first (Lint_kb.qualified_candidates ~stack name)

type finding = {
  f_loc : Location.t;
  f_msg : string;
  f_source : string;
  f_allowed : bool
}

(* replay one def; [report] accumulates findings when non-None *)
let replay (d : adef) ~(report : finding list ref option) :
    int list * int list =
  let uf = Uf.create () in
  let mutated_params = ref [] and published_params = ref [] in
  let param_index = List.mapi (fun i p -> (p, i)) d.a_params in
  let note_param_event locals store =
    List.iter
      (fun (p, i) ->
        if
          (not (List.mem i !store))
          && List.exists (fun l -> Uf.find uf l = Uf.find uf p) locals
        then store := i :: !store)
      param_index
  in
  List.iter
    (fun ev ->
      match ev with
      | Bind (v, srcs) -> List.iter (fun s -> Uf.union uf v s) srcs
      | Publish locals ->
        List.iter (Uf.publish uf) locals;
        note_param_event locals published_params
      | Mutate (locals, mname, loc, allowed) ->
        note_param_event locals mutated_params;
        let hit = List.exists (Uf.is_published uf) locals in
        (match report with
        | Some acc when hit ->
          acc :=
            { f_loc = loc;
              f_msg =
                Printf.sprintf
                  "%s writes through a buffer published earlier in `%s` — \
                   mutation after a zero-copy buffer escaped"
                  mname
                  (Lint_kb.short_name d.a_name);
              f_source = d.a_source;
              f_allowed = List.mem "A1" allowed || List.mem "all" allowed
            }
            :: !acc
        | _ -> ())
      | Call (name, arg_locals, loc, allowed) -> (
        match resolve_callee ~stack:d.a_stack name with
        | Some callee when callee.a_name <> d.a_name -> (
          match Hashtbl.find_opt summaries callee.a_name with
          | Some (pub, mut) ->
            List.iter
              (fun i ->
                match List.nth_opt arg_locals i with
                | Some locals -> List.iter (Uf.publish uf) locals
                | None -> ())
              pub;
            List.iter
              (fun i ->
                match List.nth_opt arg_locals i with
                | Some locals ->
                  note_param_event locals mutated_params;
                  let hit = List.exists (Uf.is_published uf) locals in
                  (match report with
                  | Some acc when hit ->
                    acc :=
                      { f_loc = loc;
                        f_msg =
                          Printf.sprintf
                            "call to `%s` writes through a buffer published \
                             earlier in `%s` — mutation after a zero-copy \
                             buffer escaped"
                            (Lint_kb.short_name callee.a_name)
                            (Lint_kb.short_name d.a_name);
                        f_source = d.a_source;
                        f_allowed =
                          List.mem "A1" allowed || List.mem "all" allowed
                      }
                      :: !acc
                  | _ -> ())
                | None -> ())
              mut
          | None -> ())
        | _ -> ()))
    (List.rev d.a_events);
  (List.sort_uniq Int.compare !published_params,
   List.sort_uniq Int.compare !mutated_params)

let solve () =
  (* close the interprocedural summaries; the event lists are fixed, so
     this converges (summary sets only grow) *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 16 do
    changed := false;
    incr rounds;
    Hashtbl.iter
      (fun name d ->
        let sum = replay d ~report:None in
        match Hashtbl.find_opt summaries name with
        | Some prev when prev = sum -> ()
        | _ ->
          Hashtbl.replace summaries name sum;
          changed := true)
      adefs
  done

let check ~all () =
  Hashtbl.iter
    (fun _ d ->
      let scope = Lint_kb.scope_of_source ~all d.a_source in
      if List.mem Lint_kb.A1 scope then begin
        let acc = ref [] in
        ignore (replay d ~report:(Some acc));
        List.iter
          (fun f ->
            if f.f_allowed then incr Lint_kb.suppressed
            else Lint_kb.add_diag A1 f.f_loc f.f_msg)
          !acc
      end)
    adefs
