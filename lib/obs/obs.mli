(** Observability for the checker: nested wall-clock spans, a metrics
    registry (counters, gauges, fixed-bucket histograms), and pluggable
    sinks.

    A handle is cheap to thread everywhere ({!Csp.Check_config} carries
    one). The default handle is {!silent}: every operation on it is a
    single branch and allocates nothing, so instrumentation can live on
    the engine's hot paths without costing anything when nobody is
    watching. With a {!Console} sink, spans and the final metric snapshot
    are pretty-printed; with a {!Jsonl} sink, every span close and the
    snapshot become one JSON object per line — the machine-readable trace
    [cspm_check --trace-out] writes and [bench/report] consumes.

    Counters and histograms are atomic, so worker domains may bump them
    concurrently. Span open/close bookkeeping is mutex-guarded; spans
    opened concurrently from several domains are recorded safely but
    their reported nesting depth reflects global open order, not
    per-domain structure. *)

(** Minimal JSON values: enough to emit the JSONL trace and to parse it
    back in benches and tests. No dependency beyond the stdlib. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering (no trailing newline); strings are escaped per
      RFC 8259, integral floats print without a fraction part. *)

  val to_buffer : Buffer.t -> t -> unit

  val parse : string -> (t, string) result
  (** Parse one JSON value (surrounding whitespace allowed); [Error]
      carries a byte offset and reason. [parse s] is [read s read_value]. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on missing fields or non-objects. A
      repeated key's first occurrence wins. *)

  val to_float : t -> float option

  val to_int : t -> int option
  (** [Some] only for an integral number below 2{^53} in magnitude: the
      range {!to_string} prints exactly, and beyond which [int_of_float]
      is not an integer conversion. *)

  val to_str : t -> string option

  (** {2 Reading without a tree}

      A decoder that wants a few fields of a known shape reads them
      straight from the input with a {!reader}, building no [t] for
      them, while the grammar and its error strings stay those of
      {!parse}. Each function below skips whitespace, then reads exactly
      one value (or peeks); a syntax error aborts the whole {!read} with
      the error {!parse} would report for the same input. *)

  type reader

  val read : string -> (reader -> 'a) -> ('a, string) result
  (** [read s f] runs [f] on a reader at the start of [s], then requires
      that only whitespace remains. *)

  val read_value : reader -> t
  (** The next value as a tree. *)

  val read_int : reader -> int option
  (** The next value; [Some n] exactly when {!to_int} of it would be.
      Digit runs of up to 15 digits are read as ints with no float in
      between; every other number token goes through
      [float_of_string_opt]. *)

  val read_str : reader -> string option
  (** The next value; [Some] when it is a string. *)

  val looking_at : reader -> char -> bool
  (** Whether the next non-whitespace byte is the given one. Consumes
      only the whitespace. *)

  val fold_object : reader -> 'a -> (reader -> string -> 'a -> 'a) -> 'a
  (** Read an object, calling [f r key acc] once per member, in input
      order, with the reader just before the member's value; [f] must
      read that value (with any function above). Duplicate keys are all
      passed on. A non-object is a syntax error. *)

  val fold_array : reader -> 'a -> (reader -> 'a -> 'a) -> 'a
  (** Read an array, calling [f] once per element; [f] must read the
      element. A non-array is a syntax error. *)
end

type sink =
  | Silent  (** drop everything; the zero-cost default *)
  | Console of Format.formatter
      (** spans at close (indented by depth) and a metric table at
          {!flush} *)
  | Jsonl of out_channel
      (** one JSON object per line: [{"ev":"span",...}] at each span
          close, [{"ev":"counter"|"gauge"|"histogram",...}] at {!flush} *)

type t

val silent : t
(** The shared inert handle: [is_silent silent = true], and every
    operation on it (and on handles derived from it) is a no-op. *)

val create : sink -> t
(** A fresh handle with its own metric registry. [create Silent] is
    equivalent to {!silent}. *)

val is_silent : t -> bool

val now : unit -> float
(** Wall-clock seconds (the one clock the whole checker reads; lint bans
    direct clock syscalls elsewhere under [lib/]). *)

(** {1 Metrics}

    A metric handle is looked up (or registered) by name once, outside
    the hot loop; updates through the handle are branch-plus-atomic. Two
    lookups of the same name on the same handle share state. *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram

val default_buckets : float array
(** Log-spaced duration buckets in seconds: 1us to 10s. *)

val histogram : ?buckets:float array -> t -> string -> histogram
(** Fixed upper-bound bucket boundaries (must be sorted ascending; an
    implicit overflow bucket catches the rest). [buckets] is only
    consulted on first registration of [name]. *)

val observe : histogram -> float -> unit

val histogram_counts : histogram -> (float * int) list
(** One [(upper_bound, count)] per bucket, the final pair carrying
    [infinity]; counts are per-bucket, not cumulative. *)

val histogram_sum : histogram -> float
val histogram_observations : histogram -> int

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
      sum : float;
      observations : int;
    }

val metrics : t -> (string * metric) list
(** Snapshot of every registered metric, sorted by name. Empty for
    {!silent}. *)

(** {1 Spans} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and records its wall-clock duration,
    emitting at close. The duration is recorded (and emitted) even when
    [f] raises. On {!silent} this is exactly [f ()]. *)

val event : t -> string -> (string * Json.t) list -> unit
(** Emit an ad-hoc event line (JSONL) or note (console) immediately. *)

val flush : t -> unit
(** Emit the metric snapshot to the sink and flush the underlying
    channel/formatter. Never closes the channel (the creator owns it). *)
