(** Specification normalisation on the fly: determinisation by tau-closure
    subset construction, as FDR does before a refinement check, but built
    only as far as the checks ask.

    Each normal-form node is a tau-closed set of specification states; a
    visible label (or [tick]) leads from one node to the tau-closure of
    the union of its members' successors. Nodes also carry the minimal
    acceptance sets of their stable member states, which is exactly what
    the stable-failures refinement check needs.

    A normal form ({!t}) is pure data — interned specification terms,
    their transition rows, and the nodes built so far — with no closure
    and no [Defs.t], so it can be cached, shared by concurrent checks and
    spilled to disk. It grows only through a {!session}, which lends it
    one check's transition function: following a label resolves only that
    label's target, and acceptances and divergence are computed the first
    time they are asked for. Node ids are assigned in materialisation
    order, so they depend on which checks ran first; everything a check
    reports is computed from node identity (member sets), never from ids.
    One mutex per normal form guards every access. *)

type t
(** A normal form, as far as it has been materialised. *)

type session
(** A normal form together with one check's transition function and
    budgets. *)

val create :
  ?obs:Obs.t ->
  ?max_states:int ->
  ?budget:Budget.t ->
  step:(Proc.t -> (Event.label * Proc.t) list) ->
  Proc.t ->
  session
(** A fresh normal form rooted at a ground term (const-folded by the
    caller), with its initial node built. [step] is the check's transition
    function, typically a per-check [Semantics.make_cached]; [max_states]
    (default [1_000_000]) bounds any one tau-closure. The check's
    [budget] (default: none) is polled once per 256 edges of the rows the
    session steps, so a tau-closure that never ends stops. [obs] records
    a [normalise] span around the initial node and counts every node the
    session builds in [normalise.nodes].
    @raise Budget.Exhausted [States] when the initial closure exceeds
    [max_states], or the kind {!Budget.poll} raises. *)

val session :
  ?obs:Obs.t ->
  ?max_states:int ->
  ?budget:Budget.t ->
  step:(Proc.t -> (Event.label * Proc.t) list) ->
  t ->
  session
(** Attach a check to an existing normal form (a cache hit). [step] must
    denote the same transition relation as the normal form's earlier
    sessions — cache keys guarantee it. *)

val form : session -> t
val max_states : session -> int

val force : session -> unit
(** Materialise every node reachable from the initial one (what an
    offline trace checker consults), under a [normalise] span.
    @raise Budget.Exhausted [States] when the normal form's states exceed
    the session's [max_states]. *)

val of_term : ?obs:Obs.t -> ?max_states:int -> Defs.t -> Proc.t -> session
(** The whole normal form of a term at once: {!create} on the const-folded
    term with a fresh [Semantics.make_cached] stepper, then {!force}. For
    callers outside a check — tests, benches, stream synthesis.
    @raise Budget.Exhausted as {!force}. *)

val num_nodes : t -> int
(** Nodes materialised so far. *)

val num_states : t -> int
(** Specification states materialised so far (members of built nodes).
    Read without the lock, for accounting: a concurrent check may have
    added states since. *)

val initial : session -> int
(** Always [0]: the initial node is built first. *)

(** {1 Node queries}

    Each takes a node id below [num_nodes]. Those that follow labels may
    materialise nodes and raise {!Budget.Exhausted} or the transition
    function's exceptions. *)

val members : session -> int -> Proc.t list
(** The node's specification states, as terms. *)

val labels : session -> int -> Event.label list
(** The node's outgoing labels (visible events or [Tick]), sorted and
    unique, without resolving their targets. *)

val after : session -> int -> Event.label -> int option
(** Follow one label, if the specification allows it: resolves only that
    label's target. *)

val afters : session -> int -> (Event.label * int) list
(** Every outgoing edge, labels sorted as in {!labels}; resolves them
    all. *)

val self_loops : session -> int -> Event.label list
(** The labels leading from the node back to itself, sorted. Resolves
    only labels whose successors all lie inside the node. *)

val acceptances : session -> int -> Event.label list list
(** Minimal acceptance sets: for each stable member state, its initials
    (visible events and [Tick]); dominated (superset) acceptances removed.
    Empty if the node has no stable member. *)

val can_terminate : session -> int -> bool
(** The node has a [Tick] edge. *)

val divergent : session -> int -> bool
(** Some member state of the node lies on a tau cycle — in the
    failures-divergences model everything refines such a node. *)

(** {1 Persistence} *)

type snapshot
(** The materialised data of a normal form, safe to [Marshal]: terms,
    rows, member sets and resolved edges. *)

val export : t -> snapshot

val import : term:(Proc.t -> Proc.t) -> snapshot -> t
(** Rebuild a normal form, passing every term through [term] (which
    re-admits marshalled terms to hash-consing). Acceptances and
    divergence are recomputed on demand.
    @raise Failure on a snapshot whose ids are inconsistent. *)
