(** The physical shape of a server fleet: server count plus a failure
    domain (rack, zone) for each server.

    A keyspace is described by a topology (this module), a
    {!Placement} (geometry preset + spread policy over the topology)
    and the client counts — see [Keyspace.create], which reads the
    topology from the placement. The topology is purely descriptive; fault
    {e correlation} comes from the chaos harness partitioning or
    crashing a whole domain at once, and fault {e tolerance} from
    {!Placement} spreading each key's [n] fragments across domains. *)

type t

val make : servers:int -> domains:int -> unit -> t
(** [servers] processes assigned round-robin to [domains] failure
    domains (server [i] lands in domain [i mod domains]), so domain
    sizes differ by at most one.
    @raise Invalid_argument unless [1 <= domains <= servers]. *)

val servers : t -> int
val num_domains : t -> int

val domain_of : t -> int -> int
(** Domain id of one server. @raise Invalid_argument out of range. *)

val domain_members : t -> int -> int list
(** Servers of one domain, ascending.
    @raise Invalid_argument out of range. *)

val min_domain_size : t -> int
(** Size of the smallest domain — the binding constraint on how many
    fragments per domain a placement may need (see [Placement.create]). *)
