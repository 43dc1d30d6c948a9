(** The trace-check job driver: stream a [can-trace/1] corpus through
    per-(stream × requirement) {!Csp.Tracecheck} cursors and report
    per-requirement verdict counts as a ["trace-check/1"] document.

    The corpus is read once, through {!Trace_io.fold_lines}. With one
    worker each line is parsed, mapped and replayed before the next is
    read. With [workers > 1], parsing and frame-to-event mapping of
    fixed-size batches of lines fan out across that many domains, and
    each batch is replayed sequentially in file order. Verdicts are
    identical at any worker count, and memory is O(streams ×
    requirements), never O(corpus).

    Corrupt lines follow the {!Trace_io} policy: a malformed line whose
    stream is recoverable poisons that stream (frozen cursors, reported
    as [corrupt] per requirement, positioned at the bad line); one whose
    stream is lost only increments [malformed]. Neither raises. *)

type rejection = {
  stream : string;
  position : int;  (** 0-based event index within the stream *)
  line : int;  (** corpus line number of the offending entry *)
  offending : string;  (** rendered event *)
  expected : string list;
      (** what the spec allowed; empty = spec had terminated *)
}

type requirement_report = {
  name : string;
  accepted : int;
  rejected : int;
  corrupt : int;  (** streams poisoned by a malformed line *)
  samples : rejection list;  (** first [sample_limit] rejections *)
}

type report = {
  corpus : string;
  header : Trace_io.header;
  streams : int;
  streams_accepted : int;
      (** streams clean and accepted by {e every} requirement *)
  streams_rejected : int;
      (** the rest — rejected by some requirement or corrupt *)
  entries : int;  (** trace-log entries read *)
  events : int;  (** entries mapped to spec events and fed to cursors *)
  skipped : int;  (** entries contributing no event (Rx, faults, unknown ids) *)
  faults : int;  (** entries recording injected faults *)
  malformed : int;  (** corrupt NDJSON lines *)
  wall_s : float;
  events_per_sec : float;
  requirements : requirement_report list;
  rejected_by_fault : (string * int) list;
      (** how many rejected/corrupt streams declared each fault kind in
          their meta line (a stream with several kinds counts under each;
          ["none"] collects streams whose generator declared nothing).
          Sorted by kind; empty when every stream passed. *)
}

val passed : report -> bool
(** No rejected or corrupt streams and no malformed lines. *)

val report_schema : string
(** ["trace-check/1"]. *)

val json_of_report : ?timing:bool -> report -> Obs.Json.t
(** The stable ["trace-check/1"] document. [timing:false] (default
    [true]) omits the wall-clock fields — the byte-comparable form.
    [rejected_by_fault] is rendered as an object keyed by fault kind —
    an additive extension; prior consumers are unaffected. *)

val pp_report : Format.formatter -> report -> unit

val check_corpus :
  ?workers:int ->
  ?obs:Obs.t ->
  ?sample_limit:int ->
  ?budget:Csp.Budget.t ->
  map:(Canbus.Trace_log.entry -> Csp.Event.label option) ->
  requirements:(string * Csp.Tracecheck.t) list ->
  path:string ->
  unit ->
  (report, string) result
(** Check the whole corpus. [map] turns a log entry into the observation
    it contributes ([None] = not an observation — skipped);
    [requirements] pairs each spec name with its compiled checker.
    [budget] (default: never stops) is polled on {!Csp.Budget.poll_due}
    ticks of corpus lines read. [Error] for an unreadable file, a
    missing/foreign header, or a stop of [budget]
    (["corpus check stopped: "] and {!Csp.Refine.pp_stopped}).
    [obs] receives the [tracecheck.events]/[tracecheck.streams] counters,
    an events-per-second histogram observation and a
    [tracecheck.corpus] span. *)

val prepare :
  ?config:Csp.Check_config.t ->
  script:Cspm.Elaborate.t ->
  specs:string list ->
  dbc:string option ->
  corpus:string ->
  unit ->
  ( (Canbus.Trace_log.entry -> Csp.Event.label option)
    * (string * Csp.Tracecheck.t) list,
    string )
  result
(** Resolve a trace-check job into {!check_corpus} inputs: build the
    event mapper from the CAN database ([dbc] source text, or the one
    embedded in the corpus header) and compile one checker per spec
    name — [specs = []] selects every nullary [SPEC*] definition.
    [config] supplies the compile budget, cache, and obs handle. *)
