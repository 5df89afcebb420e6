(** Plain-text table rendering for experiment reports. *)

val table :
  ?out:Format.formatter -> title:string -> header:string list ->
  string list list -> unit
[@@lint.allow "O1: ?out — test_harness's \"table renders aligned and \
               padded\" renders into a buffer"]
(** Renders an aligned ASCII table. Ragged rows are padded with empty
    cells. If a CSV directory is set ({!set_csv_dir}), the table is also
    written there as [<slug-of-title>.csv]. *)

val set_csv_dir : string option -> unit
(** When set, every subsequent {!table} call also writes a CSV file into
    the directory (created if missing). Used by [bench/main.exe --csv]. *)

val f2 : float -> string
(** Fixed two-decimal rendering ("1.53"). *)

val i : int -> string
