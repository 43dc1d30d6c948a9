(** The product-search engine shared by every refinement check.

    A refinement check explores the product of the implementation's states
    with the normalized specification's nodes, breadth-first (so reported
    counterexamples have minimal length). The implementation side is
    abstracted as a {!source} of integer states — either process terms
    interned on the fly ({!proc_source}) or a precompiled {!Lts.t}
    ({!lts_source}) — and the refusal mode and divergence predicate are
    pluggable, so traces, stable-failures, failures-divergences, and
    determinism checking are all thin configurations of {!product}.

    The engine owns the shared mechanics: pair interning, parent tracking
    with O(depth) trace reconstruction, pair/deadline budgets, and per-check
    instrumentation (wall time, states per second, peak frontier). It is
    one sequential loop on the calling domain; parallelism lives a level
    up, where whole assertions or trace streams are independent. *)

type violation =
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

type counterexample = {
  trace : Event.label list;
      (** visible labels (and possibly a final [Tick]) from the initial
          state to the violation; for trace violations the offending label
          is included as the last element *)
  violation : violation;
  impl_state : Proc.t;  (** the implementation term at the violation *)
}

type stats = {
  impl_states : int;  (** distinct implementation states visited *)
  spec_nodes : int;  (** normal-form nodes of the specification *)
  pairs : int;  (** product pairs visited *)
  wall_s : float;  (** wall-clock time spent in the search *)
  states_per_sec : float;
      (** [max impl_states pairs / wall_s] — the search throughput *)
  peak_frontier : int;
      (** largest number of discovered-but-unexplored pairs at any point *)
  reductions : (string * int * int) list;
      (** per reduction pass: name, implementation states before, states
          after. Empty for the raw (unreduced) engine and for [Fails]
          paths, whose counterexamples are re-derived unreduced. *)
}

type budget_kind =
  | Deadline  (** the wall-clock deadline passed *)
  | States  (** an [Lts] compilation hit its state budget *)
  | Pairs  (** the product exploration hit its pair budget *)
  | Interrupt  (** the cancellation token tripped (signal, drain, …) *)
  | Memory  (** the heap watermark was crossed before the OOM killer *)

val budget_kind_to_string : budget_kind -> string
(** Stable lowercase names ("deadline", "states", "pairs", "interrupt",
    "memory") used by every JSON schema that mentions an exhausted
    budget. *)

val budget_kind_of_string : string -> budget_kind option

type checkpoint = {
  explored : int;  (** commits completed at the recorded boundary *)
  pairs : int;  (** product pairs interned at the boundary *)
  impl_states : int;  (** informational: states interned when captured *)
  visited_digest : int;
      (** 52-bit rolling hash over every interned pair in interning
          order; validated when a resumed run crosses the boundary *)
  deadline_left : float option;
      (** unconsumed wall budget at capture, seconds; [None] = the run
          had no deadline *)
  exhausted : budget_kind;  (** why the original run stopped *)
  pipeline : string;
      (** fingerprint of the reduction pipeline the interrupted search ran
          under ([Reduce.fingerprint]; ["none"] for the raw engine). Pair
          ids and the visit-order digest are only reproducible under the
          same pipeline, so {!product} refuses to resume under any
          other. *)
}
(** A serializable commit-boundary snapshot of the deterministic search.
    The engine commits pairs in a fixed order, so "the state after
    [explored] commits" determines the rest of the search: resuming
    replays the prefix (deadline unarmed, progress suppressed), validates
    [pairs]/[visited_digest] at the crossing point, then continues with
    the remaining budget. Final
    verdicts, counterexamples, and state/pair counts are byte-identical
    to an uninterrupted run. *)

exception Resume_mismatch of string
(** Raised when a resumed replay crosses the recorded position in a state
    that does not match the checkpoint — the script, assertion, or
    budgets differ from the interrupted run. *)

val json_of_checkpoint : checkpoint -> Obs.Json.t
(** Schema ["cspm-search-checkpoint/1"]; every field round-trips exactly
    ([visited_digest] is masked to 52 bits so a float-backed JSON number
    carries it losslessly). *)

val checkpoint_of_json : Obs.Json.t -> (checkpoint, string) result

type resume_hint = {
  frontier : int;
      (** discovered-but-unexplored states or pairs at the point of
          exhaustion — how much work was left in the queue *)
  deepest : Event.label list;
      (** visible trace to the most recently explored state; under BFS this
          is a deepest explored path, a natural place to resume or to
          narrow the model *)
  exhausted : budget_kind;
  checkpoint : checkpoint option;
      (** resumable snapshot of the interrupted product search; [None]
          when the exhaustion happened outside the product engine (an
          [Lts] compilation budget) or before any pair was interned *)
}

type result =
  | Holds of stats
  | Fails of counterexample
  | Inconclusive of stats * resume_hint
      (** a budget ran out before a verdict: the property neither holds nor
          fails on the explored prefix; [stats] counts what was explored *)

type refusal =
  [ `None  (** traces only *)
  | `Acceptances
    (** a stable implementation state must cover some minimal acceptance
        of the node (stable-failures refinement) *)
  | `Full
    (** a stable implementation state must offer every label the normal
        form can perform (the determinism check) *) ]

type 's source = {
  initial : int;
  step : int -> (Event.label * 's) list;
      (** the transitions of a state, with successors not yet interned:
          ['s] is a process term for {!proc_source} and a graph state for
          {!lts_source} *)
  intern : 's -> int;
      (** admit a successor into the dense state space. The engine interns
          a row's successors in order before any of its pairs, and never
          the target of a label the specification forbids, so state ids
          are the same on every run. *)
  term_of : int -> Proc.t;
  state_count : unit -> int;
      (** distinct implementation states interned so far *)
  divergent : (int -> bool) option;
      (** [Some p]: check divergence — prune subtrees under divergent
          specification nodes and report a divergent implementation state
          elsewhere as a violation. [None]: divergence-blind. *)
}

(** Ample-set partial-order reduction hooks (see [Reduce.por_hooks]).
    [por_groups i] partitions state [i]'s transitions into groups owned by
    independent interleaved components ([] when the state has no such
    structure); [por_spec_free l] holds when the specification self-loops
    on [l] at every normal-form node (so [l] can neither cause nor mask a
    violation). When the ample conditions hold at a committed pair the
    engine explores a single qualifying group instead of the full
    successor set. Only consulted for [`None] (traces) refusal with a
    divergence-blind source. *)
type por = {
  por_groups : int -> (Event.label * int) list list;
  por_spec_free : Event.label -> bool;
}

type interner =
  [ `Id  (** hash-consed: [Proc.equal] / [Proc.hash], O(1) *)
  | `Structural
    (** deep [Proc.structural_equal] / [Proc.structural_hash]; the test
        oracle — verdicts must be identical to [`Id] *) ]

type progress = {
  explored : int;  (** pairs dequeued and expanded so far *)
  pairs : int;  (** pairs interned so far *)
  impl_states : int;  (** distinct implementation states so far *)
  frontier : int;  (** discovered-but-unexplored pairs right now *)
  elapsed_s : float;  (** wall-clock seconds since the search started *)
  rate : float;  (** explored pairs per second so far *)
  budget_frac : float;  (** fraction of the pair budget consumed *)
}
(** A snapshot handed to the throttled progress callback of {!product}. *)

val proc_source :
  ?interner:interner ->
  step:(Proc.t -> (Event.label * Proc.t) list) ->
  Proc.t ->
  Proc.t source
(** States are process terms, interned on the fly as the search reaches
    them (early counterexamples avoid compiling the full state space).
    [step] is the transition function, typically a per-check
    {!Semantics.make_cached}. Default interner is [`Id]. *)

val lts_source : ?check_divergence:bool -> Lts.t -> int source
(** States are the nodes of a precompiled graph. [check_divergence]
    (default [true]) precomputes the tau-SCC divergence bitset. *)

val visible_trace : Event.label list -> Event.label list
(** Drop [Tau] labels (keeps [Tick]). *)

val make_stats :
  ?wall_s:float ->
  ?peak_frontier:int ->
  ?reductions:(string * int * int) list ->
  impl_states:int ->
  spec_nodes:int ->
  pairs:int ->
  unit ->
  stats
(** Assemble a {!stats} for results produced outside {!product} (partial
    compiles, deadlock/divergence checks); derives [states_per_sec]. *)

val product :
  refusal:refusal ->
  max_pairs:int ->
  ?stop_at:float ->
  ?obs:Obs.t ->
  ?progress:(progress -> unit) ->
  ?cancel:(unit -> bool) ->
  ?memory_limit_mb:int ->
  ?resume_from:checkpoint ->
  ?resume_deadline:float ->
  ?por:por ->
  ?pipeline:string ->
  norm:Normalise.t ->
  's source ->
  result
(** Run the search. [stop_at] is an absolute wall-clock deadline (seconds,
    on the {!Obs.now} clock), polled once every 256 dequeues (a clock read
    is a syscall); an empty queue always yields the exact verdict even if
    the deadline has passed, so an {!Inconclusive} result always carries
    non-zero stats.

    [cancel] is a cancellation token polled on the same cadence: once it
    returns [true] the search stops with [Inconclusive] ([Interrupt]) and
    a fresh {!checkpoint} — the hook CLIs use to turn SIGINT/SIGTERM into
    a flushed checkpoint instead of a dead process. [memory_limit_mb]
    installs a heap watermark (also polled on the cadence): crossing it
    stops with [Inconclusive] ([Memory]) while the process is still
    healthy enough to write its report. Neither affects verdicts of runs
    that complete.

    [resume_from] replays a checkpointed search: the deterministic prefix
    is re-explored with the deadline unarmed and progress suppressed
    ([cancel] and the memory guard stay live), the engine validates the
    pair count and visited digest at the recorded boundary (raising
    {!Resume_mismatch} on disagreement), and only then arms
    [resume_deadline] seconds of wall budget (default: the checkpoint's
    own [deadline_left]) measured from the crossing point. The final
    verdict, counterexample, and state/pair counts are byte-identical to
    an uninterrupted run with sufficient budget.

    [obs] (default {!Obs.silent}) receives a [search.product] span,
    counters for pairs explored and interned, and gauges for the live
    frontier depth, budget fraction, and implementation state count.
    With the silent handle every update is a single branch — the hot path
    allocates nothing.

    [progress] is invoked at the deadline-poll cadence (once per 256
    dequeues) with a {!progress} snapshot; searches smaller than one
    cadence interval never fire it. The callback runs on the searching
    domain and must not mutate the search. Neither [obs] nor [progress]
    affects verdicts, counterexamples, or state/pair counts. *)
