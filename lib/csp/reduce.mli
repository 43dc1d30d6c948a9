(** Staged state-space reduction: the pipeline between compiling an
    implementation and searching the refinement product.

    The raw engine steps the whole composed process term once per product
    state, which is dominated by re-combining the transition lists of large
    parallel compositions (the Needham–Schroeder intruder alone contributes
    hundreds of interleaved knowledge cells). This module replaces that
    monolithic path with stages, in the spirit of FDR's supercompilation:

    + {b Staged compilation} ({!compile_staged}): the term's parallel
      structure ([Par]/[APar]/[Inter]/[Hide]/[Rename], unfolding named
      calls) is decomposed into a tree of lazy combinator nodes. Leaves
      step their (small) subterms through the operational semantics;
      composition nodes work on integer component states with memoized
      transition rows and event-indexed synchronisation lookup. A
      parallel composition classifies each child edge (free,
      synchronising, outside the side's alphabet, tick) once per child
      state, one byte per edge, not once per pair. Nothing is
      materialized except the {e root} reachable graph — intermediate
      components are never explored beyond what the whole system reaches,
      so an interleaving of hundreds of two-state cells costs its reachable
      product, not [2^cells].
    + {b Graph passes} ({!apply}): composable [Lts.t -> Lts.t] reductions —
      dead-event hiding against the specification alphabet, tau
      compression, strong-bisimulation quotienting — each obs-instrumented
      with a span and states-before/after counters.

    Every pass preserves verdicts for the model it is enabled under (see
    {!effective}). The staged graph is the raw engine's graph up to state
    numbering, so [Refine] re-derives the counterexample of a reduced
    search by searching it unreduced, and the counterexample stays
    byte-identical to [--reductions none].

    Hiding at the root of an implementation is applied to the compiled
    graph ({!hide_staged}): [Refine] compiles (and caches) the hidden
    body once, and derives the graph of each [body \ H] an assertion
    names from it. *)

(** One reduction pass. String names (for [--reductions], fingerprints and
    stats): ["dead"], ["tau"], ["bisim"]. *)
type pass =
  | Dead_events
      (** Relabel to [tau] every visible event the specification
          self-loops on at {e every} normal-form node: such events can
          neither cause nor mask a violation, and hiding them exposes tau
          compression. Sound for traces refinement only (it changes
          stability). *)
  | Tau_compress
      (** Under traces: full tau elimination (each state adopts the
          visible edges of its tau closure; unreachable states dropped).
          Under failures / FD: collapse tau-SCCs to a representative that
          keeps a tau self-loop, preserving instability and divergence. *)
  | Bisim
      (** Strong-bisimulation quotient by signature-refinement partition
          refinement. Sound in every model. *)

type pipeline = pass list

val default_pipeline : pipeline
(** All three passes. Model-inapplicable passes are filtered by
    {!effective}, so the default is safe for every check. *)

val pass_name : pass -> string

val pipeline_of_string : string -> (pipeline, string) result
(** Parse a [--reductions] argument: ["none"], ["default"], or a
    comma-separated subset of pass names (e.g. ["bisim,tau"]). *)

val pipeline_to_string : pipeline -> string
(** Canonical rendering: passes in canonical order, comma-separated;
    ["none"] for the empty pipeline. *)

val effective :
  model:[ `Traces | `Failures | `Fd ] -> pipeline -> pipeline
(** The passes that actually run for a model, in canonical application
    order (dead, tau, bisim): [Dead_events] is traces-only,
    [Tau_compress] and [Bisim] apply everywhere. *)

val fingerprint : pipeline -> string
(** [pipeline_to_string] of the pipeline as given (callers pass the
    {!effective} pipeline); recorded in checkpoints and digests so a
    resume under different reductions fails loudly. *)

val compile_staged :
  ?max_states:int ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  Defs.t ->
  Proc.t ->
  Lts.compile_result
(** Compile the reachable graph of a ground term through the lazy
    combinator tree, numbering states in discovery order from state 0.
    Discovery follows the order in which each composition emits a row
    (free moves of the left row, then the right row with the scan join's
    matches in place, then the index join's, then the joint tick), so
    that order is part of this contract: checkpoint digests and bisim's
    representatives go by the numbering, and
    [test/fixtures/par_order.csp] pins it.
    Up to that numbering it is the raw [Lts] compiler's graph, with the
    same state terms and every row in the raw stepper's order (by label,
    then by target term), except at the root: a named call unfolded into
    a composition keeps a state of its own under the call's term until a
    component of its body moves, but when the term's root is such a call
    the graph starts at the body's initial state, which is what the
    passes reduce. {!with_root_call} restores the root's call state.
    [max_states] (default [1_000_000]) bounds the {e total} states
    interned across all tree nodes. The check's [budget] (default: none)
    is polled per interned tree state on {!Budget.poll_due}. Exceeding
    either returns [Partial] with the kind that ran out, counting the
    states interned so far.
    [obs] records a [reduce.compile_staged] span and a state counter. *)

val with_root_call : Defs.t -> Proc.t -> Lts.t -> Lts.t
(** [with_root_call defs root g], for [g] the complete result of
    [compile_staged defs root], is the raw [Lts] compiler's graph up to
    state numbering. When the root is a named composition's call, its
    call state steps as state 0 and nothing enters it: it replaces state
    0 if nothing re-enters state 0, and is otherwise added as the last
    state, sharing state 0's row. Otherwise [g] itself.
    [Lts.renumber] of it is [Lts.compile defs root], numbering included:
    the explicit graph of FD checks. *)

val split_hiding : Proc.t -> Proc.t * Eventset.t list
(** [split_hiding (P \ H1 \ ... \ Hn)] is [(P, [H1; ...; Hn])], innermost
    set first, for a [P] that is not itself a hiding; [(p, [])] for a term
    [p] with no hiding at its root. *)

val hide_staged : Eventset.t list -> Lts.t -> Lts.t
(** Root hiding, applied to a compiled graph: [hide_staged sets g], for
    [g] the complete result of [compile_staged defs p], is the complete
    result of [compile_staged] on [p] hidden under [sets] in turn,
    numbering included. Events in any of the sets become [tau], every
    state term but [Omega] is wrapped in the hidings, the states that
    wrapping makes equal are merged, and rows are sorted by label, then
    by target term. So assertions that hide different events of one
    system compile it once. [hide_staged [] g] is [g]. *)

type pass_stat = {
  pass : string;
  states_before : int;
  states_after : int;
}

val apply :
  ?obs:Obs.t ->
  model:[ `Traces | `Failures | `Fd ] ->
  norm:Normalise.session ->
  pipeline ->
  Lts.t ->
  Lts.t * pass_stat list
(** Run the passes of the pipeline, in {!effective} order, over an
    implementation graph, against the normalised specification [norm].
    Returns the reduced graph and one stat per pass run, in application
    order. Under [`Traces] every pass leaves no tau edge and no label of
    {!spec_free_labels}, unless the graph is too big to eliminate taus. *)

val spec_free_labels : Normalise.session -> unit Event.Label_tbl.t
(** The visible labels the specification self-loops on at every
    normal-form node — the labels the dead pass hides.
    Exact, but it stops walking the normal form as soon as no candidate
    is left, so it rarely forces much of it; if the states it does force
    outgrow the session's budget, no label qualifies. *)
