(** Running the [assert] declarations of a loaded script — the
    FDR-equivalent step of the paper's workflow (Fig. 1, "Refinement
    checking"). *)

type outcome = {
  assertion : Ast.assertion;
  pos : Ast.pos option;
  result : Csp.Refine.result;
}

exception Check_error of Ast.pos * exn
(** An assertion names a term the semantics cannot step: an unguarded
    recursion ([Csp.Semantics.Unguarded]), an ill-formed call or prefix
    ([Csp.Semantics.Ill_formed]), an expression that fails to evaluate
    ([Csp.Expr.Eval_error], e.g. a division by zero), or a term
    elaboration rejects ([Elaborate.Elab_error]). {!run} and {!run_seq}
    raise it, carrying the position of the first assertion in script
    order that ran into one and the exception itself.
    [Printexc.to_string] renders it as the position followed by
    {!error_message} of that exception. *)

val error_message : exn -> string
(** A one-line description of a {!Check_error}'s exception, e.g.
    ["Unguarded recursion: P [] (a!1 -> P)"]. *)

val slice : remaining_wall:float -> remaining:int -> float
(** The wall-clock share the next assertion receives when
    [remaining_wall] seconds are left for [remaining] assertions:
    [remaining_wall / remaining], clamped to be non-negative. Exposed so
    the rolling-budget arithmetic is testable on its own. *)

val all_pass : outcome list -> bool
(** Every outcome is {!Csp.Refine.Holds} — inconclusive is not a pass. *)

val json_of_outcomes : ?cache:Csp.Cache.stats -> outcome list -> Obs.Json.t
(** The machine-readable outcome report behind [cspm_check --format
    json]. Stable schema ["cspm-check/1"]:

    {v
    { "schema": "cspm-check/1",
      "assertions": [
        { "index": 0, "assertion": "<pretty CSPm>",
          "line": 3, "col": 1,            // present when the source
                                          // position is known
          "verdict": "pass" | "fail" | "inconclusive",
          "stats": { "impl_states", "spec_nodes", "pairs", "wall_s",
                     "states_per_sec", "peak_frontier", "workers",
                     "par_speedup",
                     "reductions": [      // one entry per reduction pass
                       { "pass", "states_before", "states_after" }, ... ]
                   },                     // pass and inconclusive
          "counterexample": { "trace": ["ev.1", ...],
                              "violation": "<description>" },  // fail
          "resume_hint": { "frontier", "exhausted": "deadline" |
                           "states" | "pairs",
                           "deepest": [...] } },  // inconclusive
        ... ],
      "summary": { "total", "passed", "failed", "inconclusive" } }
    v}

    New fields may be added over time; existing fields keep their names
    and meanings (earlier revisions added ["resume_hint"]["checkpoint"] —
    the engine checkpoint, when one exists — and widened ["exhausted"] to
    the full {!Csp.Search.budget_kind_to_string} vocabulary; this one
    adds ["stats"]["reductions"], the per-pass state counts of the staged
    reduction pipeline, [[]] on the raw path, and this one adds the
    optional top-level ["cache"] object — [{"hits", "misses",
    "evictions", "resident_states", "resident_entries"}], present when
    the run used an LTS cache). Timing fields ([wall_s],
    [states_per_sec]) vary run to run; everything else is deterministic.
    The search runs on one domain, so ["workers"] is always 1 and
    ["par_speedup"] always 1.0; both keys stay for schema
    compatibility. *)

val json_of_outcome : int -> outcome -> Obs.Json.t
(** One entry of the report's ["assertions"] array, at index [i]. *)

val report_of_json_outcomes :
  ?cache:Csp.Cache.stats -> Obs.Json.t list -> Obs.Json.t
(** Wrap already-rendered outcome objects into a full ["cspm-check/1"]
    report, recounting the summary from their ["verdict"] fields; [cache]
    adds the top-level ["cache"] stats object.
    [json_of_outcomes os = report_of_json_outcomes (List.mapi
    json_of_outcome os)]; a resumed run splices the outcome objects
    stored in its checkpoint in front of the ones it computed itself. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_outcomes : Format.formatter -> outcome list -> unit

(** {2 Running a script}

    One loop runs a script's assertions, for a plain run, a checkpointed
    one, a resumed one and a daemon's retry alike. Where it starts and
    where it stopped are ["cspm-checkpoint/1"] session states: what
    [cspm_check --checkpoint-out] writes and [--resume] reads, and what
    the daemon spills to its state directory — the script fingerprint
    (resuming against a different script or reduction setting is refused
    up front), the rendered outcomes of the assertions that settled, the
    index of the assertion to re-run, and — when the interrupt landed
    inside a product search — the engine checkpoint to fast-forward it
    from. *)

type resume_state = {
  script_digest : string;
      (** the {!Csp.Cache.script_digest} of the script source and the
          reduction pipeline the run was under *)
  completed : Obs.Json.t list;
      (** rendered {!json_of_outcome} objects for assertions
          [0 .. next_index - 1] *)
  next_index : int;  (** the assertion to re-run *)
  search : Csp.Search.checkpoint option;
}

val fresh : string -> resume_state
(** [fresh script_digest]: nothing settled, so a run from it starts at
    the first assertion, from scratch. *)

val run_seq :
  ?from:resume_state ->
  config:Csp.Check_config.t ->
  Elaborate.t ->
  outcome list * resume_state option
(** Run assertions [from.next_index ..] in script order (default: all of
    them, from a fresh state with an empty digest), resuming the first
    from [from.search] when it holds an engine checkpoint. Returns the
    outcomes of the assertions it ran.

    An interrupt ends the run: when an assertion comes back
    {!Csp.Refine.Inconclusive} with [exhausted = Interrupt] (the
    cancellation token tripped), its outcome is the last one returned,
    so a valid partial report can be written, and the state returned
    beside them ({!resume_at} of it) re-runs it. [None] means the run
    reached the last assertion.

    A [config.deadline] covers the whole run; each assertion's slice is
    recomputed as remaining-wall / remaining-assertions, so budget left
    unused by fast assertions rolls forward to later (possibly hard)
    ones instead of being discarded.

    [config.workers] is how many assertions run at once, each on its own
    domain. It applies only without a deadline, whose accounting is
    inherently sequential, and when more than one assertion is left to
    run; each product search itself always runs on one domain. Verdicts,
    counterexamples, the first {!Check_error} in script order and the
    assertion an interrupt stops at are those of a run on one domain.

    Assertions that refine one system, or check it for deadlock or
    divergence, share its compile, whatever each hides of it
    ([SYSTEM \ H]). With [config.cache] set they share it through that
    cache. Without one, when two or more of the refinements and freedom
    checks to run name one process once their root hiding is peeled
    off, the run makes a fresh in-memory cache that lives as long as
    the run, holds at most [config.max_states] resident states, emits no
    [serve.cache_*] metrics and appears in no report. A run whose
    assertions share no system keeps no cache of its own.

    [config.obs] records a [check.assertion] span per assertion (when
    they run one after another) on top of the engine's own spans and
    metrics. *)

val run : ?config:Csp.Check_config.t -> Elaborate.t -> outcome list
(** The outcomes of {!run_seq} from the first assertion. *)

val rendered : resume_state -> outcome list -> Obs.Json.t list
(** [rendered from outcomes]: every outcome of a run from [from] that
    returned [outcomes], rendered for the report in script order —
    [from.completed], then [outcomes] by {!json_of_outcome} at their
    indices from [from.next_index]. *)

val resume_at : resume_state -> outcome list -> int -> resume_state
(** [resume_at from outcomes i]: the state that re-runs assertion [i]
    ([from.next_index <= i]) of a run from [from] that returned
    [outcomes] — the rendered outcomes before [i], and the engine
    checkpoint in the resume hint of [i]'s outcome, if it has one. An
    interrupt stops there, and so does a daemon retry. *)

val checkpoint_schema : string
(** ["cspm-checkpoint/1"]. *)

val json_of_resume_state : resume_state -> Obs.Json.t

val resume_state_of_json : Obs.Json.t -> (resume_state, string) result
(** Validates the schema tag, that [completed] has exactly [next_index]
    entries, and the embedded engine checkpoint (when non-null). *)
