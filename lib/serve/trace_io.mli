(** [can-trace/1] corpus files: NDJSON trace logs on disk.

    A corpus is one header line followed by one JSON object per line:

    {v
    {"schema":"can-trace/1","generator":"ota-fault","seed":7,"dbc":"..."}
    {"s":"s00000","meta":{"drop":0.12,...}}
    {"s":"s00000","t":150,"n":"VMG","d":"tx","id":257,"data":[1]}
    ...
    v}

    Every post-header line carries ["s"], the stream it belongs to;
    entry lines are the {!Canbus.Trace_log} codec with ["s"] prepended,
    [meta] lines attach generator metadata (e.g. the fault plan) to a
    stream. Streams may interleave arbitrarily — the checker keeps one
    cursor per stream, so corpora are written in whatever order the
    generator produces entries.

    Files are written through {!Fsio} (atomic + durable); reading never
    raises on corrupt input — a bad line is reported as {!Malformed} and
    costs at most its own stream, mirroring the cache's
    corrupt-file-degrades-to-miss policy. Only a missing or foreign
    {e header} fails the whole corpus: there is no way to interpret the
    rest of the file without it. *)

val schema : string
(** ["can-trace/1"] (equal to [Canbus.Trace_log.schema]). *)

type header = {
  generator : string option;
  seed : int option;
  dbc : string option;  (** embedded CAN database source (.dbc text) *)
}

val empty_header : header
val header_to_json : header -> Obs.Json.t
val header_of_line : string -> (header, string) result

type line =
  | Meta of { stream : string; meta : Obs.Json.t }
  | Entry of { stream : string; entry : Canbus.Trace_log.entry }
  | Malformed of { stream : string option; reason : string }
      (** corrupt line; [stream] when the ["s"] field was recoverable *)

val parse_line : string -> line
(** Classify one post-header line. Total — never raises.

    One pass of an {!Obs.Json.reader} decodes the line: an entry line's
    fields go straight from the input into the {!Canbus.Trace_log.entry}
    (no JSON tree), a [meta] value is kept as a tree, and unknown keys
    are read and dropped. When a key repeats, its first occurrence wins,
    as with {!Obs.Json.member}. Integers are exact below 2{^53} in
    magnitude; anything beyond (an id of [1e300], a time of [1e19]) is
    ill-typed. The classification, down to the [Malformed] reason, is
    that of {!Obs.Json.parse} followed by
    {!Canbus.Trace_log.entry_of_json}: a syntax error anywhere in the
    line is ["not JSON: ..."] with the parser's byte offset, a line with
    no string ["s"] (or no object at all) has no stream, a ["meta"] key
    makes a {!Meta} line, and every other line is validated by
    {!Canbus.Trace_log.entry_of_fields}. *)

(** {1 Writing} *)

type writer

val with_writer : path:string -> header:header -> (writer -> 'a) -> 'a
(** Write a corpus through {!Fsio.with_atomic_out}: the header goes out
    first, then whatever the callback emits; the file appears atomically
    on clean return and not at all if the callback raises. *)

val write_meta : writer -> stream:string -> Obs.Json.t -> unit
val write_entry : writer -> stream:string -> Canbus.Trace_log.entry -> unit

(** {1 Reading} *)

val read_header : path:string -> (header, string) result
(** Read and parse only the header line. *)

val fold_lines :
  path:string ->
  init:'a ->
  ('a -> line_no:int -> string -> 'a) ->
  ('a * header, string) result
(** Stream the corpus's raw post-header lines through the callback, one
    at a time, each read only after the previous call returns (line
    numbers are 1-based file lines; the first data line is 2). [Error]
    only for an unreadable file or a missing/foreign header. *)

val fold :
  path:string ->
  init:'a ->
  ('a -> line_no:int -> line -> 'a) ->
  ('a * header, string) result
(** {!fold_lines} with each line classified by {!parse_line}. *)
