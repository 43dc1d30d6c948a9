(** The supervised job runner behind [cspm_checkd].

    Jobs arrive as {!Protocol.job} values (from the NDJSON loop of
    {!serve} or programmatically via {!submit}), wait in a bounded queue
    — submissions beyond [queue_limit] are rejected, which is the
    protocol's backpressure — and run one at a time on the calling
    domain; a trace-check job fans its corpus parsing out across the
    [workers] it requests.

    The runner dispatches on {!Protocol.kind}: [Check] jobs run the
    refinement engine with the retry/checkpoint machinery below;
    [Trace_check] jobs stream a [can-trace/1] corpus through
    {!Trace_run} — a single pass, so no retries or checkpoints; their
    [deadline_s] and the runner's cancellation token bound the
    specification compile, the token alone stops the corpus pass (the
    job fails with ["corpus check stopped: interrupted"]), and their
    [result] events embed the
    ["trace-check/1"] report and carry top-level stream/verdict counts.
    Both kinds load their script through one {!Cspm.Elaborate.Memo} that
    lives as long as the runner, so a job that edits the previous job's
    script re-parses only the declarations the edit changed.

    A job whose attempt exhausts its wall budget ([deadline_s], the
    per-job watchdog) is retried with exponential backoff and jitter, and
    the retry {e resumes} from the engine checkpoint the interrupted
    attempt left in its resume hint — the checkpoint is round-tripped
    through its JSON codec on the way, so the wire format is exercised on
    every retry. The per-attempt budget doubles each retry, so a
    too-tight first deadline still converges. Retries stop when an
    attempt finishes without a deadline/memory exhaustion or the retry
    budget runs out; whatever outcomes exist then are reported.

    The runner's cancellation token is threaded into every check, so
    tripping it (SIGTERM via {!Signals.install_termination}, or a [drain]
    while a job runs — both only in the binary) interrupts the running
    search at its next poll and the job reports a valid partial result
    marked [interrupted].

    Queue depth, completed/failed/retry counts are published as
    [serve.*] gauges and counters on the runner's [obs] handle. *)

type config = {
  queue_limit : int;  (** submissions beyond this are rejected *)
  default_retries : int;
      (** retry budget for jobs that don't set [max_retries] *)
  backoff_base_s : float;
      (** first backoff; doubles each retry up to [backoff_max_s] *)
  backoff_max_s : float;
  seed : int;
      (** seeds the jitter PRNG — a fixed seed makes retry schedules
          reproducible in tests *)
  max_deadline_factor : float;
      (** cap on the doubling per-attempt budget: no retry's deadline
          ever exceeds the job's original [deadline_s] times this *)
  sleep : float -> unit;
      (** injectable so tests can count backoffs instead of waiting *)
  emit : Obs.Json.t -> unit;  (** one protocol event, one call *)
  obs : Obs.t;
  cancel : Signals.token;
  cache : Csp.Cache.t option;
      (** the LTS cache every job's checks compile through — one shared,
          mutex-guarded store, so a stream of near-duplicate models only
          recompiles what each edit actually changed. Stats appear in
          [health] events and each result's report. *)
  state_dir : string option;
      (** directory for per-job retry checkpoints (as [cspm-checkpoint/1]
          documents, written atomically and durably). A checkpoint is
          spilled before each retry's backoff and refreshed if daemon
          shutdown interrupts a job — so a crash mid-retry leaves a
          resume handle — and removed when the job reaches a terminal
          verdict. [None] keeps checkpoints in memory only. *)
}

val default_config : emit:(Obs.Json.t -> unit) -> config
(** [queue_limit = 16], [default_retries = 2], backoff 50ms..2s,
    [max_deadline_factor = 8.], a fixed seed, [sleep = Unix.sleepf],
    silent obs, a fresh token, no cache, no state dir. *)

type t

val create : config -> t
val queue_depth : t -> int
val draining : t -> bool

val submit : t -> Protocol.job -> unit
(** Enqueue, emitting [accepted] — or [rejected] when the queue is full
    or the runner is draining. Does not run the job. *)

val request : ?v:Protocol.version -> t -> Protocol.request -> unit
(** Apply one protocol request: [Submit] is {!submit}, [Health] emits a
    health event (tagged [v], the version the request arrived under),
    [Drain] stops further admissions. *)

val run_pending : t -> unit
(** Run queued jobs to completion, in order, emitting their events. If
    the cancellation token trips mid-job the running job reports a
    partial [interrupted] result and the rest of the queue is failed
    without running. *)

val drain : t -> unit
(** Stop admissions, {!run_pending}, and emit the final [drained]
    event. *)

val serve : config -> in_channel -> unit
(** The daemon loop: a reader domain ingests NDJSON requests from the
    channel while the calling domain applies them and runs jobs. Returns
    after the queue is drained following a [drain] request, end of input,
    or the cancellation token tripping; the [drained] event is the last
    line emitted. The reader domain is deliberately not joined — it may
    be parked in a blocking read on a channel nothing will ever close. *)
