(** Operational semantics: the labelled-transition relation of process terms.

    [transitions defs p] computes every transition of the ground term [p],
    implementing the standard CSP firing rules (Roscoe): input prefixes are
    expanded over the declared channel-field domains, generalized parallel
    synchronizes on its interface set and on [tick] (the paper's
    {m A \cup \{\checkmark\}}), sequential composition converts the left
    operand's [tick] into [tau], and hiding converts hidden events into
    [tau].

    Invariant: every [Tick]-labelled transition targets {!Proc.Omega}, and
    every target term is normalized with {!Proc.const_fold}, so terms can be
    used directly as hash-table state keys. *)

exception Unguarded of string
(** Raised when unfolding named calls/conditionals more than the unfolding
    limit without reaching a guarding operator — e.g. [P = P]. *)

exception Ill_formed of string
(** Raised on arity mismatches between a prefix and its channel
    declaration, calls to unknown processes, or unbound variables in what
    should be a ground term. *)

val transitions : Defs.t -> Proc.t -> (Event.label * Proc.t) list
(** All transitions, sorted and deduplicated. *)

val make_cached :
  ?obs:Obs.t ->
  ?budget:Budget.t ->
  Defs.t ->
  Proc.t ->
  (Event.label * Proc.t) list
(** A fresh memoizing transition function with its own private cache.
    Hash-consing makes the key O(1) (physical equality + precomputed
    hash); the cache dies with the closure, so nothing outlives its
    check. [obs] counts cache hits and misses ([semantics.memo_*];
    counters are shared when several steppers are built from one
    handle). A check's [budget] (default: none) is polled once per 4,096
    pairs the synchronisation joins try, within a step: nested
    synchronising compositions can give one term an exponentially long
    row.
    @raise Budget.Exhausted the kind {!Budget.poll} raises. *)

val initials : Defs.t -> Proc.t -> Event.label list
(** The labels offered by the term (sorted, deduplicated). *)

val is_stable : Defs.t -> Proc.t -> bool
(** No outgoing [tau] transition. *)
