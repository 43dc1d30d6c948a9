(** The one configuration record every check accepts.

    Replaces the [?max_states ?max_pairs ?deadline ?workers]
    optional-argument sprawl that used to be copy-pasted across
    {!Refine}, [Cspm.Check], [Security.Ns_protocol], and
    [Ota.Requirements]: build a [t] once with the [with_*] builders and
    pass it as [?config] everywhere.

    {[
      let config =
        Check_config.(default |> with_deadline 30. |> with_max_states 50_000)
      in
      Refine.traces_refines ~config defs ~spec ~impl
    ]}

    [deadline], [cancel] and [memory_limit_mb] become one {!Budget.t} per
    check ([Refine.budget]), which the check's staged compile,
    specification normal form and product search all poll. *)

type t = {
  max_states : int;
      (** budget for each compilation: the states a staged compile
          interns across its whole combinator tree, and the specification
          nodes a search reaches *)
  max_pairs : int option;
      (** budget for the product exploration; [None] = [max_states] *)
  deadline : float option;
      (** wall-clock budget in seconds from the start of the check, for
          its compile, its normal form and its search together; [None] =
          unbounded *)
  workers : int;
      (** how many independent assertions [Cspm.Check.run] runs at once,
          each on its own domain; 1 = one after another. Every product
          search runs on a single domain whatever this says. *)
  obs : Obs.t;
      (** observability handle: spans and metrics from every pipeline
          stage go here ({!Obs.silent} costs one branch per operation) *)
  progress : (Search.progress -> unit) option;
      (** live progress callback, throttled to the engine's deadline-poll
          cadence (once per 256 dequeues) *)
  cancel : (unit -> bool) option;
      (** cancellation token, polled by the staged compile, the normal
          form and the product search: once it returns [true] the check
          stops with [Inconclusive] ([Interrupt]), with a checkpoint in
          the hint when the search was running — the hook the CLIs use to
          turn SIGINT/SIGTERM into a flushed checkpoint *)
  memory_limit_mb : int option;
      (** heap watermark in MiB, polled where [cancel] is: crossing it
          stops the check with [Inconclusive] ([Memory]) while the
          process can still write its report, whichever loop it is in *)
  reductions : Reduce.pipeline;
      (** the staged reduction pipeline ({!Reduce.default_pipeline} by
          default); [Reduce.effective] filters it per model, so
          inapplicable passes are skipped rather than misapplied. Use
          [with_reductions []] for the raw engine. A reduced [Fails] is
          re-derived on the unreduced staged graph, which is the raw
          engine's graph up to state numbering, so verdicts and traces
          never depend on this field — only speed does. *)
  cache : Cache.t option;
      (** content-addressed store of compiled/normalised/reduced LTSs
          ({!Cache}); when set, per-assertion spec/impl compilation is
          keyed by content digest and reused across assertions, runs,
          and (in the daemon) jobs. When this is [None],
          [Cspm.Check.run] and [Cspm.Check.run_seq] still share the
          compile of a system that two or more of a run's refinements
          and deadlock or divergence checks name, hidden or not: they
          then check the run against a silent
          cache of their own that lives as long as the run. Only complete compilation results are
          cached, so verdicts never depend on this field either. *)
}

val default : t
(** [max_states = 1_000_000], no pair budget of its own,
    no deadline, one worker, {!Obs.silent}, no progress callback — the
    exact behavior of the old per-function defaults. *)

val with_max_states : int -> t -> t
val with_max_pairs : int -> t -> t
val with_deadline : float -> t -> t
val with_workers : int -> t -> t
val with_obs : Obs.t -> t -> t
val with_progress : (Search.progress -> unit) -> t -> t
val with_cancel : (unit -> bool) -> t -> t
val with_memory_limit : int -> t -> t
val with_reductions : Reduce.pipeline -> t -> t
val with_cache : Cache.t -> t -> t
(** Builders, argument-last so they chain:
    [Check_config.(default |> with_deadline 0.5 |> with_max_pairs 1000)]. *)
