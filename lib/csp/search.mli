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
  spec_nodes : int;
      (** normal-form nodes of the specification this search reached *)
  pairs : int;  (** product pairs visited *)
  wall_s : float;  (** wall-clock time spent in the search *)
  states_per_sec : float;
      (** [max impl_states pairs / wall_s] — the search throughput *)
  peak_frontier : int;
      (** largest number of discovered-but-unexplored pairs at any point *)
  reductions : (string * int * int) list;
      (** per reduction pass: name, implementation states before, states
          after. Empty for the raw (unreduced) engine and for [Fails]
          paths, whose counterexamples are re-derived on the unreduced
          staged graph. *)
}

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
  exhausted : Budget.kind;  (** why the original run stopped *)
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
  exhausted : Budget.kind;
  checkpoint : checkpoint option;
      (** resumable snapshot of the interrupted product search; [None]
          when the exhaustion happened outside the product engine (in a
          compile) or before any pair was interned *)
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
  step:(Proc.t -> (Event.label * Proc.t) list) ->
  Proc.t ->
  Proc.t source
(** States are process terms, interned on the fly as the search reaches
    them (early counterexamples avoid compiling the full state space).
    [step] is the transition function, typically a per-check
    {!Semantics.make_cached}. States are interned by hash-consed
    identity. *)

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
  budget:Budget.t ->
  ?obs:Obs.t ->
  ?progress:(progress -> unit) ->
  ?resume_from:checkpoint ->
  ?pipeline:string ->
  norm:Normalise.session ->
  's source ->
  result
(** Run the search. [budget] holds the check's deadline, cancellation
    token and heap watermark, shared with [norm]; it is polled per
    dequeued pair on the {!Budget.poll_due} cadence, so the first pair is
    always explored before it is read, and an empty queue always yields
    the exact verdict even if the deadline has passed: an {!Inconclusive}
    result always carries non-zero stats. A deadline stops the search
    with [Inconclusive] ([Deadline]), a tripped token with [Interrupt]
    and a fresh {!checkpoint} (the hook CLIs use to turn SIGINT/SIGTERM
    into a flushed checkpoint instead of a dead process), and a crossed
    watermark with [Memory] while the process is still healthy enough to
    write its report. None of them affects verdicts of runs that
    complete.

    [norm] is the check's session on the specification's normal form,
    which the search materialises as it goes. Spec nodes are numbered by
    their first appearance in this search: the visited digest, the
    [spec_nodes] stat, and the spec's budget — at most
    [Normalise.max_states norm] distinct nodes, else [Inconclusive]
    ([States]) — read that numbering, so they do not depend on what other
    checks sharing the normal form materialised before. A stop in [norm]
    ends the search as its own deadline would, counting the pair it was
    visiting as frontier.

    [resume_from] replays a checkpointed search under a [budget] created
    unarmed: the deterministic prefix is re-explored with the deadline
    unarmed and progress suppressed (the token and the watermark stay
    live), the engine validates the pair count and visited digest at the
    recorded boundary (raising {!Resume_mismatch} on disagreement), and
    only then arms the budget's deadline ({!Budget.seconds}, else the
    checkpoint's own [deadline_left]) from the crossing point, for the
    search and [norm] alike. The final
    verdict, counterexample, and state/pair counts are byte-identical to
    an uninterrupted run with sufficient budget.

    [obs] (default {!Obs.silent}) receives a [search.product] span,
    counters for pairs explored and interned, and gauges for the live
    frontier depth, budget fraction, and implementation state count.
    With the silent handle every update is a single branch — the hot path
    allocates nothing.

    [progress] is invoked once per 256 dequeues with a {!progress} snapshot; searches smaller than one
    cadence interval never fire it. The callback runs on the searching
    domain and must not mutate the search. Neither [obs] nor [progress]
    affects verdicts, counterexamples, or state/pair counts. *)
