(** Refinement checking, FDR-style.

    [check ~spec ~impl] decides [spec ⊑ impl] in the traces or
    stable-failures model by (1) compiling and normalizing the
    specification, then (2) exploring the product of the implementation's
    states (generated on the fly) with the normal-form nodes, breadth-first,
    so a reported counterexample has minimal length.

    Every check is a thin configuration of the shared engine in {!Search};
    this module re-exports the engine's verdict types so existing callers
    see one vocabulary.

    Also provides deadlock and divergence checking of single processes. *)

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
  spec_nodes : int;  (** normal-form nodes of the specification *)
  pairs : int;  (** product pairs visited *)
  wall_s : float;  (** wall-clock time spent in the search *)
  states_per_sec : float;  (** search throughput *)
  peak_frontier : int;  (** largest unexplored frontier at any point *)
  reductions : (string * int * int) list;
      (** per reduction pass run on the implementation graph before the
          search: [(pass name, states before, states after)], in
          application order; [[]] on the raw path *)
}

type budget_kind = Search.budget_kind =
  | Deadline  (** the wall-clock deadline passed *)
  | States  (** an [Lts] compilation hit its state budget *)
  | Pairs  (** the product exploration hit its pair budget *)
  | Interrupt  (** the cancellation token tripped (signal, drain, …) *)
  | Memory  (** the heap watermark was crossed before the OOM killer *)

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
          product engine (an [Lts] compilation budget) *)
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
  ?max_states:int ->
  ?deadline:float ->
  Defs.t ->
  spec:Proc.t ->
  impl:Proc.t ->
  result
(** Default model is {!Traces}. All budgets, the interner, and the
    observability handle come from [config] (default
    {!Check_config.default}): [config.max_states] bounds each [Lts]
    compilation, [config.max_pairs] the product exploration (defaulting to
    [max_states]), [config.deadline] is a wall-clock budget in seconds
    from the start of the call. Exhausting any budget returns
    {!Inconclusive} rather than raising. At least one state or pair is
    always explored before the deadline is consulted, so an
    {!Inconclusive} result always carries non-zero stats.

    [config.interner] is ignored by {!Failures_divergences}, which
    precompiles both sides. The search runs on the calling domain and
    ignores [config.workers], which only [Cspm.Check.run] reads.
    Verdicts, counterexample traces, and state/pair counts are the same
    under any [config.obs] sink or [config.progress] callback.

    [max_states] and [deadline] are conveniences for the two most common
    one-off overrides; when given they take precedence over the record's
    fields. The other checks below take only [?config].

    [config.cancel] and [config.memory_limit_mb] degrade a running search
    gracefully: once the token trips (or the heap watermark is crossed)
    the product search returns {!Inconclusive} with [exhausted =
    Interrupt] (respectively [Memory]) and a {!Search.checkpoint} in the
    hint instead of dying.

    [config.reductions] selects the staged reduction pipeline (see
    {!Reduce}): when any pass applies to the model, the implementation is
    compiled through the staged combinator tree, reduced, and the product
    is searched over the reduced graph (with ample-set POR applied during
    the search when enabled). Verdicts are preserved by construction, and
    counterexamples are re-derived by the raw engine, so results are
    byte-identical to [with_reductions []] — [stats.reductions] and the
    wall clock are the only observable differences. If the staged compile
    runs out of budget the check falls back to the raw engine (which can
    still find an early counterexample without the full graph). The
    determinism check and the graph-based freedom checks always run
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
    terms, [config.max_states], [config.interner], and [config.max_pairs]
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
(** Failures-divergences refinement. Unlike the other checks, both sides
    are fully compiled first (implementation divergence detection needs
    the whole tau graph), so early counterexample exit does not avoid the
    full state-space cost. *)

val deadlock_free : ?config:Check_config.t -> Defs.t -> Proc.t -> result

val divergence_free : ?config:Check_config.t -> Defs.t -> Proc.t -> result
(** {!deadlock_free} and {!divergence_free} are a graph compilation plus
    an offender scan, not a product search. *)

val deterministic : ?config:Check_config.t -> Defs.t -> Proc.t -> result
(** FDR's determinism check in the stable-failures model: [P] is
    deterministic iff [normalise(P) ⊑F P], which this implements as a
    failures self-refinement (the specification side is normalized
    internally). A counterexample exhibits a trace after which [P] can
    both accept and refuse the same event. *)

val holds : result -> bool
(** [true] only for {!Holds}; {!Inconclusive} is not a pass. *)

val inconclusive : result -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_resume_hint : Format.formatter -> resume_hint -> unit
val pp_stats : Format.formatter -> stats -> unit
val pp_result : Format.formatter -> result -> unit
