(** The one configuration record every check accepts.

    Replaces the [?interner ?max_states ?max_pairs ?deadline ?workers]
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

    [Refine.check] additionally keeps [?model], [?max_states], and
    [?deadline] as thin conveniences (they override the record's
    fields). *)

type t = {
  interner : Search.interner;
      (** how on-the-fly implementation states are interned; [`Id]
          (hash-consing) unless you are the structural test oracle *)
  max_states : int;  (** budget for each [Lts] compilation *)
  max_pairs : int option;
      (** budget for the product exploration; [None] = [max_states] *)
  deadline : float option;
      (** wall-clock budget in seconds from the start of the check;
          [None] = unbounded *)
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
      (** cancellation token, polled at the same cadence: once it returns
          [true] the product search stops with [Inconclusive]
          ([Interrupt]) and a checkpoint in the hint — the hook the CLIs
          use to turn SIGINT/SIGTERM into a flushed checkpoint *)
  memory_limit_mb : int option;
      (** heap watermark in MiB, polled at the same cadence: crossing it
          stops the product search with [Inconclusive] ([Memory]) while
          the process can still write its report *)
  reductions : Reduce.pipeline;
      (** the staged reduction pipeline ({!Reduce.default_pipeline} by
          default); [Reduce.effective] filters it per model, so
          inapplicable passes are skipped rather than misapplied. Use
          [with_reductions []] for the raw engine. Counterexamples are
          re-derived by the raw engine either way, so verdicts and traces
          never depend on this field — only speed does. *)
  cache : Cache.t option;
      (** content-addressed store of compiled/normalised/reduced LTSs
          ({!Cache}); when set, per-assertion spec/impl compilation is
          keyed by content digest and reused across assertions, runs,
          and (in the daemon) jobs. Only complete compilation results
          are cached, so verdicts never depend on this field either. *)
}

val default : t
(** [`Id] interner, [max_states = 1_000_000], no pair budget of its own,
    no deadline, one worker, {!Obs.silent}, no progress callback — the
    exact behavior of the old per-function defaults. *)

val with_interner : Search.interner -> t -> t
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
