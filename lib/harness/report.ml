let[@lint.allow
     "P2: Report is the sanctioned output sink — every other module \
      routes human-readable output through it"] default_out =
  Format.std_formatter

let pad cell width = cell ^ String.make (max 0 (width - String.length cell)) ' '

(* collapse accidental runs of spaces from wrapped OCaml string
   literals *)
let normalize_title title =
  String.split_on_char ' ' title
  |> List.filter (fun s -> s <> "")
  |> String.concat " "

let[@lint.allow
     "R1: set once from the CLI before any domain is spawned, read-only \
      afterwards"] csv_dir = ref None

let set_csv_dir dir = csv_dir := dir

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> String.split_on_char '-'
  |> List.filter (fun s -> s <> "")
  |> fun parts ->
  let joined = String.concat "-" parts in
  if String.length joined > 60 then String.sub joined 0 60 else joined

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~title ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (slug title ^ ".csv") in
    let oc = open_out path in
    let line cells =
      output_string oc (String.concat "," (List.map csv_escape cells));
      output_char oc '\n'
    in
    line header;
    List.iter line rows;
    close_out oc

let table ?(out = default_out) ~title ~header rows =
  let title = normalize_title title in
  write_csv ~title ~header rows;
  let columns = List.length header in
  let rows =
    List.map
      (fun row ->
        let len = List.length row in
        if len < columns then row @ List.init (columns - len) (fun _ -> "")
        else row)
      rows
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          (String.length h) rows)
      header
  in
  let render_row cells =
    String.concat "  " (List.map2 pad cells widths)
  in
  let rule =
    String.concat "--"
      (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf out "@.== %s ==@." title;
  Format.fprintf out "%s@." (render_row header);
  Format.fprintf out "%s@." rule;
  List.iter (fun row -> Format.fprintf out "%s@." (render_row row)) rows;
  Format.pp_print_flush out ()

let f2 x = Printf.sprintf "%.2f" x
let i = string_of_int

