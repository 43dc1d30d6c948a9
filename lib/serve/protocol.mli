(** The ["cspm-checkd/2"] wire protocol (accepting ["cspm-checkd/1"]).

    The daemon speaks newline-delimited JSON over stdio: one request
    object per line on stdin, one event object per line on stdout.

    Version 2 turns the single implicit job shape into a tagged
    job-kind union: ["kind": "check"] (the v1 behaviour — refinement
    checking of a CSPm script) or ["kind": "trace-check"] (streaming
    trace containment of a recorded [can-trace/1] corpus against the
    script's specs). Version 1 requests remain valid: a submit with no
    ["schema"] and no ["kind"] is a v1 check job, and every event about
    it is tagged ["cspm-checkd/1"], so existing clients see exactly the
    bytes they always did. A ["kind"] field on a schema-less request
    implies v2; ["kind": "trace-check"] under an explicit v1 schema is
    rejected.

    Requests:
    {v
    { "op": "submit", "id": "job-1",
      "kind": "check" | "trace-check",  // optional, default "check"
      "script": "<inline CSPm source>" | "path": "model.csp",
      // trace-check only:
      "corpus": "fleet.ndjson",     // can-trace/1 NDJSON file
      "specs": ["SPEC_AUTH", ...] | "spec": "SPEC_AUTH",
                                    // optional; default: every nullary
                                    // definition named SPEC*
      "dbc": "bus.dbc",             // optional; default: the corpus
                                    // header's embedded database
      // both kinds:
      "deadline_s": 5.0,     // optional wall budget: per attempt for
                             // a check; per spec compile for a
                             // trace-check
      "workers": 2,          // optional, default 1 (trace-check only:
                             // parsing domains; check jobs ignore it)
      "max_states": 100000,  // optional
      "max_retries": 3,      // optional (check only)
      "reductions": "none",  // optional (check only)
      "lint": true,          // optional (check only): run the static
                             // analyses first; findings ride on the
                             // result/failed event as "diagnostics"
      "deny_warnings": true } // optional (check only): implies "lint";
                             // blocking findings fail the job before
                             // any checking runs
    { "op": "health" }
    { "op": "drain" }
    v}

    Events: [accepted], [rejected] (backpressure or a malformed
    request), [started], [retrying], [result] (with the embedded report
    — ["cspm-check/1"] for check jobs, ["trace-check/1"] for trace-check
    jobs, which also carry top-level stream/verdict counts), [failed],
    [health], and [drained] (always the last line before the daemon
    exits). Job-scoped events carry the schema version the job was
    submitted under; connection-scoped events ([health], [drained],
    rejects of unparseable requests) are tagged with the version of the
    request when known, v2 otherwise. *)

val schema : string
(** ["cspm-checkd/2"]. *)

val schema_v1 : string
(** ["cspm-checkd/1"]. *)

type version = V1 | V2

val schema_of_version : version -> string

type script_source =
  | Inline of string  (** CSPm source carried in the request itself *)
  | Path of string  (** load from the daemon's filesystem *)

type kind =
  | Check  (** refinement-check the script's assertions (v1 behaviour) *)
  | Trace_check of {
      corpus : string;  (** path to a [can-trace/1] NDJSON corpus *)
      specs : string list;
          (** nullary process names to check containment against; empty
              = every definition named [SPEC*] *)
      dbc : string option;
          (** path to the CAN database mapping frames to events; [None]
              = the database embedded in the corpus header *)
    }

type job = {
  id : string;
  source : script_source;
  kind : kind;
  version : version;
      (** the schema version the job was submitted under — its events
          echo it back *)
  deadline_s : float option;
      (** check jobs: wall budget per attempt, doubled by the runner on
          every retry so a too-tight first guess still converges.
          Trace-check jobs: the budget of each specification's compile;
          one that runs out fails the job. *)
  workers : int;
      (** trace-check: corpus parsing domains. Check jobs run their
          assertions one after another on one domain and ignore it. *)
  max_states : int option;
  max_retries : int option;  (** [None] = the runner's default *)
  reductions : string option;
      (** [--reductions]-style pass list ([None] = ["default"]); an
          unparseable value fails the job with a [failed] event before
          any attempt runs. Retries resume under the same setting, so
          checkpoints always match. Check jobs only. *)
  lint : bool;
      (** run the static analyses over the loaded script before
          checking; set whenever [deny_warnings] is. Check jobs only. *)
  deny_warnings : bool;
      (** treat warning diagnostics as blocking, mirroring the CLI's
          [--deny-warnings]: a blocking report fails the job (with the
          diagnostics attached) before any attempt runs *)
}

type request = Submit of job | Health | Drain

val request_of_line : string -> (request * version, string) result
(** Parse one stdin line; the returned version is what replies to this
    request should be tagged with. Unknown ops, missing required
    fields, and a wrong ["schema"] (when present) are [Error] with a
    reason suitable for a [rejected] event. *)

(** {2 Events} — each returns the complete single-line JSON object.
    [v] defaults to {!V2}. *)

val accepted : ?v:version -> id:string -> queue_depth:int -> unit -> Obs.Json.t
val rejected : ?v:version -> id:string option -> reason:string -> unit -> Obs.Json.t
val started : ?v:version -> id:string -> attempt:int -> unit -> Obs.Json.t

val retrying :
  ?v:version ->
  id:string -> attempt:int -> backoff_s:float -> resumed:bool -> unit ->
  Obs.Json.t
(** [resumed] is [true] when the next attempt continues from the
    previous attempt's engine checkpoint rather than restarting. *)

val result :
  ?v:version ->
  ?verdicts:int * int * int ->
  ?diagnostics:Obs.Json.t ->
  id:string -> attempts:int -> interrupted:bool -> report:Obs.Json.t ->
  unit -> Obs.Json.t
(** [verdicts] is [(streams, accepted, rejected)] — the stream counts a
    trace-check job surfaces at the top level of its result event.
    [diagnostics] is the ["diagnostics/1"] document of a lint-enabled
    job whose findings did not block. *)

val failed :
  ?v:version ->
  ?diagnostics:Obs.Json.t ->
  id:string -> attempts:int -> reason:string -> unit ->
  Obs.Json.t
(** [diagnostics] carries the blocking ["diagnostics/1"] report when a
    lint gate failed the job. *)

val health :
  ?v:version ->
  ?cache:Obs.Json.t ->
  queued:int -> done_:int -> failed:int -> retries:int -> draining:bool ->
  unit -> Obs.Json.t
(** [cache] is the runner's LTS-cache stats object (hits, misses,
    evictions, resident states/entries); present when the daemon runs
    with [--cache]. *)

val drained : ?v:version -> done_:int -> failed:int -> unit -> Obs.Json.t
