(** Multicore sweeps over independent simulations.

    Experiments routinely run dozens of seeded simulations that share
    nothing — every engine owns all of its state — so they parallelize
    trivially across OCaml 5 domains. [map] chunks the inputs over a
    bounded pool of domains (work-stealing granularity of one item) and
    preserves input order in the output, so a parallel sweep is a drop-in
    replacement for [List.map]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
[@@lint.allow "O1: ?domains — test_harness's parallel group and \
               test_erasure's \"rs-bch[12,6]: 96 KiB over 3 domains\" \
               fix the pool size"]
(** [map f inputs] applies [f] to every input, using up to [domains]
    (default [Domain.recommended_domain_count], clamped to [1, 8])
    additional domains. Results are in
    input order. If any application raises, the first exception (in
    input order) is re-raised after all domains have finished — no work
    is silently lost. With [domains <= 1] this is [List.map]. *)
