(** Failure-domain-aware placement: which [n] servers hold a key's
    fragments.

    A placement binds a geometry ({!Protocol.Params}, typically from a
    {!preset}) to a {!Topology} and a spread {!policy}. For every key
    it yields [n] {e distinct} physical servers such that

    - the fragments span [min(domains, n)] failure domains,
    - no domain holds more than [ceil(n / min(domains, n))] of them,
    - consecutive coordinates land in distinct domains, so the MD
      primitives' distinguished first set [D] (the [f + 1] servers a
      writer contacts first) itself spans [min(f + 1, domains)] domains.

    When {!domain_safe} holds, a whole failure domain crashing or
    partitioning stays within each key's [f]-crash budget — the
    property the per-domain chaos cells exercise. Placement is a pure
    function of the key: clients, servers and tests compute it
    independently and agree. *)

module Params = Protocol.Params

(** [Mod_stripe] rotates coordinates arithmetically (key [i] starts at
    domain [i mod domains]) — perfectly balanced aggregate load, but
    adjacent keys share server sets shifted by one. [Consistent_hash]
    walks a deterministic vnode ring from the key's hash point —
    unrelated keys get unrelated server sets and fleet growth moves a
    minimal fraction of keys, the production default of the placement
    ADRs this module follows. *)
type policy = Mod_stripe | Consistent_hash

type t

(** Geometry presets in the storage-ADR "data+parity" notation. SODA's
    code dimension is [k = n - f], so ["4+2"] is [n = 6, f = 2] and
    ["10+4"] is [n = 14, f = 4]. *)
type preset = [ `P4_2 | `P10_4 ]

val preset_params : preset -> Params.t
val preset_of_string : string -> preset option
val preset_name : preset -> string

val create : topology:Topology.t -> params:Params.t -> ?policy:policy -> unit -> t
(** [policy] defaults to [Mod_stripe].
    @raise Invalid_argument if the topology has fewer than [n] servers,
    or its smallest domain cannot hold the balanced per-domain share
    [ceil(n / min(domains, n))]. *)

val servers_of : t -> key:int -> int array
(** The [n] physical server indices holding [key]'s fragments,
    coordinate order (index [i] is the server of coordinate [i]).
    Deterministic; satisfies the distinctness/spread/balance invariants
    above. @raise Invalid_argument on a negative key. *)

val params : t -> Params.t
val topology : t -> Topology.t

val domains_spanned : t -> key:int -> int
[@@lint.allow "X1: state probe — placement tests check a key's domain spread"]
(** Distinct failure domains among [servers_of ~key] — always
    [min(domains, n)]. *)

val max_per_domain : t -> key:int -> int
[@@lint.allow "X1: test oracle — domain_safe is checked against the \
               per-domain share"]
(** Largest fragment count any one domain holds for [key] — at most
    [ceil(n / min(domains, n))]. *)

val domain_safe : t -> bool
(** [true] iff the per-domain share is at most [f], i.e. losing any
    whole domain keeps every key inside its crash budget. *)
