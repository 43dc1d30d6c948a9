(** Coarse-grained fan-out over independent units of work.

    The one place under [lib/] that spreads work across OCaml 5 domains
    (the daemon's blocking stdin reader is the only other domain). Its
    callers hand it whole units — an assertion, a trace stream, a corpus
    line — never the inside of one search. *)

val init : workers:int -> int -> (int -> 'a) -> 'a array
(** [init ~workers n f] is [Array.init n f], computed on up to [workers]
    domains, the calling domain included. With [workers <= 1] (or
    [n <= 1]) it runs inline on the caller, in index order. Otherwise
    each domain claims the next unclaimed index from a shared counter and
    writes [f i] into slot [i], so the result does not depend on the
    schedule. Every spawned domain is joined before [init] returns; if
    any [f i] raised, the exception of the lowest such [i] is re-raised.

    [f] runs concurrently with itself, so it must be safe to call from
    several domains at once. *)
