(** Storage and communication cost accounting.

    Following Section II of the paper, only {e data} — values and coded
    elements — is charged; metadata (tags, ids, acknowledgements) is
    free. Costs are recorded in bytes and normalized to "value units" on
    demand by dividing by a nominal value size, so a full value costs
    ~1 unit and a coded element ~1/k (the 4-byte framing header makes
    measured numbers marginally larger than the formulas; reports show
    both).

    Communication is attributed to operations by id: protocol code calls
    {!comm} with the responsible operation whenever a data-bearing
    message is {e sent}. Storage tracks each server's currently stored
    data bytes; the accountant maintains the running maximum of the
    total, which is the paper's worst-case total storage cost. *)

type t

val create : value_len:int -> t
(** [value_len] is the nominal value size in bytes used for
    normalization.
    @raise Invalid_argument if [value_len <= 0]. *)

val value_len : t -> int

(** {1 Communication} *)

val comm : t -> op:int -> bytes:int -> unit
(** Charge [bytes] of data communication to operation [op].
    @raise Invalid_argument on a negative size or a negative [op]. *)

val comm_of_op : t -> op:int -> float
(** Total data sent on behalf of [op], in value units. *)

val total_comm : t -> float
(** Total data communication of the whole execution, in value units. *)

(** {1 Storage} *)

val storage_set : t -> server:int -> bytes:int -> unit
(** Declare that [server] currently stores [bytes] bytes of data
    (replacing its previous figure).
    @raise Invalid_argument on a negative size or a negative [server]. *)

val current_total_storage : t -> float
(** Sum over servers, in value units. *)

val max_total_storage : t -> float
(** Running maximum of {!current_total_storage} — the paper's worst-case
    total storage cost. *)

val storage_of_server : t -> server:int -> int
[@@lint.allow "X1: state probe — tests read one server's stored bytes"]
(** Current bytes at one server. *)
