(** Refinement checking, FDR-style.

    [check ~spec ~impl] decides [spec ⊑ impl] in the traces or
    stable-failures model by exploring the product of the implementation's
    states with the nodes of the specification's normal form,
    breadth-first, so a reported counterexample has minimal length. Both
    sides are generated as the search reaches them: the normal form
    ({!Normalise}) materialises only the nodes the search follows a label
    into, and a cached normal form keeps what earlier checks built.

    Every check is a thin configuration of the shared engine in {!Search};
    this module re-exports the engine's verdict types so existing callers
    see one vocabulary.

    Also provides deadlock and divergence checking of single processes.

    One compiler serves every check: the implementation's graph comes
    from {!Reduce.compile_staged}. Traces and failures checks search it
    (or its reduction) as compiled; FD checks search {!explicit_graph},
    the same graph renumbered as [Lts.compile] numbers it, and deadlock
    and divergence checks the same graph before renumbering. *)

type violation = Search.violation =
  | Trace_violation of Event.label
      (** the implementation performed this label where the specification
          forbids it *)
  | Refusal_violation of {
      offered : Event.label list;
          (** what the stable implementation state offers *)
      acceptances : Event.label list list;
          (** the specification's minimal acceptance sets at that point *)
    }
  | Deadlock
  | Divergence

type counterexample = Search.counterexample = {
  trace : Event.label list;
      (** visible labels (and possibly a final [Tick]) from the initial
          state to the violation; for trace violations the offending label
          is included as the last element *)
  violation : violation;
  impl_state : Proc.t;  (** the implementation term at the violation *)
}

type stats = Search.stats = {
  impl_states : int;  (** distinct implementation states visited *)
  spec_nodes : int;
      (** normal-form nodes of the specification this search reached *)
  pairs : int;  (** product pairs visited *)
  wall_s : float;  (** wall-clock time spent in the search *)
  states_per_sec : float;  (** search throughput *)
  peak_frontier : int;  (** largest unexplored frontier at any point *)
  reductions : (string * int * int) list;
      (** per reduction pass run on the implementation graph before the
          search: [(pass name, states before, states after)], in
          application order; [[]] on the raw path *)
}

type budget_kind = Budget.kind =
  | Deadline
  | States
  | Pairs
  | Interrupt
  | Memory

type resume_hint = Search.resume_hint = {
  frontier : int;
      (** discovered-but-unexplored states or pairs at the point of
          exhaustion — how much work was left in the queue *)
  deepest : Event.label list;
      (** visible trace to the most recently explored state; under BFS this
          is a deepest explored path, a natural place to resume or to
          narrow the model *)
  exhausted : budget_kind;
  checkpoint : Search.checkpoint option;
      (** resumable snapshot of the interrupted product search — feed it
          to {!resume}; [None] when the exhaustion happened outside the
          product engine (in a compile) *)
}

type result = Search.result =
  | Holds of stats
  | Fails of counterexample
  | Inconclusive of stats * resume_hint
      (** a budget ran out before a verdict: the property neither holds nor
          fails on the explored prefix; [stats] counts what was explored *)

type model =
  | Traces
  | Failures
  | Failures_divergences
      (** FDR's namesake FD model: failures refinement plus the condition
          that the implementation may only diverge where the specification
          does (below a divergent specification point, anything goes) *)

val check :
  ?config:Check_config.t ->
  ?model:model ->
  Defs.t ->
  spec:Proc.t ->
  impl:Proc.t ->
  result
(** Default model is {!Traces}. All budgets and the
    observability handle come from [config] (default
    {!Check_config.default}): [config.max_states] bounds each
    implementation compilation (the states its staged combinator tree
    interns, not only the root's) and the specification nodes the search
    reaches (a specification larger than that gets a verdict when the
    part the search reaches fits), [config.max_pairs] the product
    exploration (defaulting to [max_states]), [config.deadline] is a
    wall-clock budget in seconds
    from the start of the call. Exhausting any budget returns
    {!Inconclusive} rather than raising. At least one state or pair is
    always explored before the deadline is consulted, so an
    {!Inconclusive} result always carries non-zero stats.

    The search runs on the calling domain and
    ignores [config.workers], which only [Cspm.Check.run] reads.
    Verdicts, counterexample traces, and state/pair counts are the same
    under any [config.obs] sink or [config.progress] callback.

    [config.deadline], [config.cancel] and [config.memory_limit_mb] make
    one {!Budget.t} per check ({!budget}), which the staged compile, the
    specification's normal form and the product search all poll: once
    the deadline passes, the token trips or the heap watermark is
    crossed, the check returns {!Inconclusive} with [exhausted =
    Deadline], [Interrupt] or [Memory] instead of dying, with a
    {!Search.checkpoint} in the hint when the stop came inside the
    product search. A tau-closure that never ends stops too.

    [config.reductions] selects the staged reduction pipeline (see
    {!Reduce}): when any pass applies to the model, the implementation is
    compiled through the staged combinator tree, reduced, and the product
    is searched over the reduced graph. Verdicts are preserved by
    construction. A [Fails] found on the reduced graph is re-derived by a
    second product search over the unreduced staged graph — the one this
    check compiled, else the cache's [staged-] entry, else a fresh staged
    compile — which is the raw engine's graph up to state numbering, so
    results are byte-identical to [with_reductions []]; if that search
    reaches no verdict within the budgets, the reduced counterexample
    stands. [stats.reductions] and the wall clock are the only observable
    differences. If the staged compile runs out of states the check falls
    back to the raw engine (which can still find an early counterexample
    without the full graph); a compile stopped by the deadline, the
    cancellation token or the heap watermark ends the check
    [Inconclusive] with no checkpoint. The determinism check always runs
    raw. *)

val resume :
  ?config:Check_config.t ->
  ?model:model ->
  checkpoint:Search.checkpoint ->
  Defs.t ->
  spec:Proc.t ->
  impl:Proc.t ->
  result
(** Continue an interrupted {!check} from its checkpoint (the
    [hint.checkpoint] of the {!Inconclusive} result). The model, process
    terms, [config.max_states], and [config.max_pairs]
    must match the interrupted run — the engine validates the replayed
    prefix against the checkpoint's digests and raises
    {!Search.Resume_mismatch} on disagreement (a larger [max_pairs] is
    legal and is the way to get past a [Pairs] exhaustion). A
    [config.deadline] grants that many seconds beyond the recorded
    position; without one the checkpoint's own unconsumed budget applies
    ([None] = unbounded). The final verdict is byte-identical to an
    uninterrupted run.

    [config.reductions] must also match the interrupted run: checkpoints
    record the reduction fingerprint of the search they interrupted, and
    a resume whose effective pipeline differs raises
    {!Search.Resume_mismatch} immediately (the visit order of a reduced
    search means nothing to an unreduced one, and vice versa). *)

val resume_deterministic :
  ?config:Check_config.t ->
  checkpoint:Search.checkpoint ->
  Defs.t ->
  Proc.t ->
  result
(** {!resume} for an interrupted {!deterministic} check. The graph-based
    {!deadlock_free}/{!divergence_free} checks produce no checkpoint (an
    interrupted compile just re-runs), so they need no resume entry. *)

val traces_refines :
  ?config:Check_config.t -> Defs.t -> spec:Proc.t -> impl:Proc.t -> result

val failures_refines :
  ?config:Check_config.t -> Defs.t -> spec:Proc.t -> impl:Proc.t -> result

val fd_refines :
  ?config:Check_config.t -> Defs.t -> spec:Proc.t -> impl:Proc.t -> result
(** Failures-divergences refinement. Unlike the other checks, the
    implementation is fully compiled first, to its {!explicit_graph}
    (divergence detection needs its whole tau graph), so early
    counterexample exit does not avoid the full state-space cost. A
    compile that runs out of budget is {!Inconclusive}, with the states
    it interned as [impl_states]. *)

val deadlock_free : ?config:Check_config.t -> Defs.t -> Proc.t -> result

val divergence_free : ?config:Check_config.t -> Defs.t -> Proc.t -> result
(** {!deadlock_free} and {!divergence_free} are an {!explicit_graph}
    compile, short of its renumbering (their results do not depend on
    it), plus an offender scan, not a product search. A compile that
    runs out of budget is {!Inconclusive}, with the kind that ran out and
    the states it interned as [impl_states]. *)

val explicit_graph :
  ?config:Check_config.t -> Defs.t -> Proc.t -> Lts.compile_result
(** The graph {!fd_refines} searches and [cspm_check --dot] prints:
    [Lts.compile]'s graph of the term, numbering included. It is derived
    from the staged compile of
    the term's body (the term with its root hiding peeled off, found in
    [config.cache]'s [staged-] entry when there is one), through
    [Reduce.hide_staged], [Reduce.with_root_call] and [Lts.renumber], so
    every check that names one system shares that compile.
    [config.max_states] and the check's {!budget} bound the compile;
    running out returns [Partial].
    @raise Semantics.Unguarded and the other errors of stepping the
    term. *)

val deterministic : ?config:Check_config.t -> Defs.t -> Proc.t -> result
(** FDR's determinism check in the stable-failures model: [P] is
    deterministic iff [normalise(P) ⊑F P], which this implements as a
    failures self-refinement (the specification side is normalized
    internally). A counterexample exhibits a trace after which [P] can
    both accept and refuse the same event. *)

val budget : ?resume_from:Search.checkpoint -> Check_config.t -> Budget.t
(** One check's stop conditions, from [config.deadline] (counted from the
    call), [config.cancel] and [config.memory_limit_mb]. With
    [resume_from], the deadline is left unarmed for the search to arm at
    the crossing. *)

val with_spec :
  config:Check_config.t ->
  budget:Budget.t ->
  step:(Proc.t -> (Event.label * Proc.t) list) ->
  Defs.t ->
  Proc.t ->
  (Normalise.session -> string option -> 'a) ->
  ('a, budget_kind) Stdlib.result
(** [with_spec ~config ~budget ~step defs spec f] runs [f] on a session
    on the specification's normal form, stepped by the caller's
    transition function and polling [budget]: the normal form cached
    under {!Cache.spec_key} when [config.cache] holds one (with that key
    as [f]'s second argument), else a fresh one. Only the initial node is
    built up front, and what [f] materialises is spilled afterwards when
    the cache persists. A budget that runs out outside the product
    search (a product search reports its own) is [Error] with its
    kind. *)

val pp_stopped : Format.formatter -> budget_kind -> unit
(** ["deadline exhausted"], ["state budget exhausted"], ["pair budget
    exhausted"], ["interrupted"] or ["memory watermark crossed"]. *)

val holds : result -> bool
(** [true] only for {!Holds}; {!Inconclusive} is not a pass. *)

val inconclusive : result -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit

val pp_resume_hint : Format.formatter -> resume_hint -> unit
(** Leads with what stopped the search ({!pp_stopped}), then the frontier
    and the deepest trace. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_result : Format.formatter -> result -> unit
