type violation = { what : string; culprits : int list }

let pp_violation ppf v =
  Format.fprintf ppf "%s (ops: %a)" v.what
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    v.culprits

let err what culprits = Error { what; culprits }

exception Found of violation

(* ------------------------------------------------------------------ *)
(* Tag-based check (Lemma 2.1) *)

let tag_of r = Option.get r.History.tag
let value_of r = Option.get r.History.value

(* P2: all writes carry distinct tags (including incomplete writes that
   got far enough to pick one). Returns the tag -> write map that P3
   resolves reads against. Raises [Found]. *)
module TagMap = Map.Make (struct
  type t = Tag.t

  let compare = Tag.compare
end)

let check_p2 records =
  List.fold_left
    (fun acc w ->
      if w.History.kind = History.Write && Option.is_some w.History.tag then begin
        let tag = tag_of w in
        (match TagMap.find_opt tag acc with
        | Some other ->
          raise
            (Found
               { what = "two writes share a tag (P2)";
                 culprits = [ other.History.op; w.History.op ]
               })
        | None -> ());
        TagMap.add tag w acc
      end
      else acc)
    TagMap.empty records

(* P3: a completed read's (tag, value) pair matches the write with that
   tag, or the initial state. Raises [Found]. *)
let check_p3 ~initial_value ~by_tag completed =
  List.iter
    (fun r ->
      if r.History.kind = History.Read then begin
        let tag = tag_of r in
        if Tag.equal tag Tag.initial then begin
          if not (Bytes.equal (value_of r) initial_value) then
            raise
              (Found
                 { what =
                     "read returned the initial tag with a non-initial \
                      value (P3)";
                   culprits = [ r.History.op ]
                 })
        end
        else
          match TagMap.find_opt tag by_tag with
          | None ->
            raise
              (Found
                 { what = "read returned a tag no write created (P3)";
                   culprits = [ r.History.op ]
                 })
          | Some w ->
            (match w.History.value with
            | Some wv when Bytes.equal wv (value_of r) -> ()
            | Some _ ->
              raise
                (Found
                   { what =
                       "read returned a value different from the write \
                        with its tag (P3)";
                     culprits = [ w.History.op; r.History.op ]
                   })
            | None ->
              raise
                (Found
                   { what = "tagged write has no recorded value";
                     culprits = [ w.History.op ]
                   }))
      end)
    completed

let p1_violation a b =
  let ta = tag_of a and tb = tag_of b in
  Found
    { what =
        Format.asprintf
          "real-time order violated: op%d (tag %a) finished before op%d \
           (tag %a) started (P1)"
          a.History.op Tag.pp ta b.History.op Tag.pp tb;
      culprits = [ a.History.op; b.History.op ]
    }

(* Whether the real-time-ordered pair a -> b contradicts the tag partial
   order. The requirement depends only on the later op's kind: a write
   must pick a tag strictly above every operation that preceded it,
   while a read may repeat the tag of a preceding operation but never
   go below one. *)
let p1_pair_bad ~ta b =
  match b.History.kind with
  | History.Write -> Tag.( >= ) ta (tag_of b)
  | History.Read -> Tag.( > ) ta (tag_of b)

(* P1 as the original pairwise scan: O(m^2). Kept as the oracle the
   sweep below is differentially tested against. Raises [Found]. *)
let p1_quadratic completed =
  let arr = Array.of_list completed in
  let m = Array.length arr in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then begin
        let a = arr.(i) and b = arr.(j) in
        let a_end = Option.get a.History.responded_at in
        if a_end < b.History.invoked_at && p1_pair_bad ~ta:(tag_of a) b then
          raise (p1_violation a b)
      end
    done
  done

(* P1 as a plane sweep: O(m log m).

   Process operations b in invocation order; maintain the set of
   operations that responded strictly before the current invocation
   time (advancing a pointer over a response-time ordering) reduced to
   its maximum tag and one operation attaining it. Since [p1_pair_bad]
   is monotone in [ta], pair (a, b) with [res a < inv b] is bad for
   some a iff it is bad for the frontier maximum — so checking b
   against the frontier alone decides the verdict, and a flagged
   (frontier, b) pair is itself a genuine violation to report.
   Raises [Found]. *)
let p1_sweep completed =
  let arr = Array.of_list completed in
  let m = Array.length arr in
  if m > 0 then begin
    let res i = Option.get arr.(i).History.responded_at in
    let by_inv = Array.init m (fun i -> i) in
    Array.sort
      (fun i j ->
        Float.compare arr.(i).History.invoked_at arr.(j).History.invoked_at)
      by_inv;
    let by_res = Array.init m (fun i -> i) in
    Array.sort (fun i j -> Float.compare (res i) (res j)) by_res;
    let frontier = ref (-1) in
    (* index into arr of a max-tag responded op; -1 = none yet *)
    let frontier_tag = ref Tag.initial in
    let p = ref 0 in
    Array.iter
      (fun bi ->
        let b = arr.(bi) in
        let ib = b.History.invoked_at in
        while !p < m && res by_res.(!p) < ib do
          let ai = by_res.(!p) in
          let ta = tag_of arr.(ai) in
          if !frontier < 0 || Tag.( > ) ta !frontier_tag then begin
            frontier := ai;
            frontier_tag := ta
          end;
          incr p
        done;
        if !frontier >= 0 && p1_pair_bad ~ta:!frontier_tag b then
          raise (p1_violation arr.(!frontier) b))
      by_inv
  end

let check_with ~p1 ?(initial_value = Bytes.empty) records =
  let completed =
    List.filter (fun r -> Option.is_some r.History.responded_at) records
  in
  (* Every completed operation must expose a tag and a value. *)
  let missing =
    List.find_opt
      (fun r -> Option.is_none r.History.tag || Option.is_none r.History.value)
      completed
  in
  match missing with
  | Some r -> err "completed operation lacks a tag or value" [ r.History.op ]
  | None -> (
    try
      let by_tag = check_p2 records in
      check_p3 ~initial_value ~by_tag completed;
      p1 completed;
      Ok ()
    with Found v -> Error v)

let check_tagged ?initial_value records =
  check_with ~p1:p1_sweep ?initial_value records

let check_tagged_quadratic records = check_with ~p1:p1_quadratic records

(* ------------------------------------------------------------------ *)
(* Wing-Gong exhaustive search on values *)

let linearizable_by_value ~initial_value records =
  let ops =
    records
    |> List.filter (fun r -> Option.is_some r.History.responded_at)
    |> Array.of_list
  in
  let m = Array.length ops in
  if m > 62 then
    invalid_arg "Atomicity.linearizable_by_value: history too large";
  if m = 0 then true
  else begin
    let inv i = ops.(i).History.invoked_at in
    let res i = Option.get ops.(i).History.responded_at in
    let value i =
      match ops.(i).History.value with
      | Some v -> v
      | None -> Bytes.empty
    in
    let is_write i = ops.(i).History.kind = History.Write in
    (* Memo of (linearized-set, index of last linearized write) states
       already proven fruitless; -1 encodes "initial value". The state
       packs into the int-keyed table without allocation: the set (at
       most 62 bits) keys the table, and the visited last-write indices
       ([current + 1], in [0, 62]) form the bitmask value. *)
    let visited = Int_tbl.Map.create ~dummy:0 1024 in
    let full = (1 lsl m) - 1 in
    let rec go set current =
      if set = full then true
      else begin
        let bit = 1 lsl (current + 1) in
        let seen = Int_tbl.Map.find visited set ~default:0 in
        if seen land bit <> 0 then false
        else begin
          Int_tbl.Map.replace visited set (seen lor bit);
          (* earliest response among pending ops bounds which ops can be
             linearized next *)
          let horizon = ref infinity in
          for i = 0 to m - 1 do
            if set land (1 lsl i) = 0 then
              if res i < !horizon then horizon := res i
          done;
          let ok = ref false in
          let i = ref 0 in
          while (not !ok) && !i < m do
            let idx = !i in
            if set land (1 lsl idx) = 0 && inv idx <= !horizon then begin
              if is_write idx then
                ok := go (set lor (1 lsl idx)) idx
              else begin
                let current_value =
                  if current < 0 then initial_value else value current
                in
                if Bytes.equal (value idx) current_value then
                  ok := go (set lor (1 lsl idx)) current
              end
            end;
            incr i
          done;
          !ok
        end
      end
    in
    go 0 (-1)
  end
