(** Chronological record of bus activity, for assertions and conformance
    checking against extracted CSP models.

    The log is a growable array in chronological order: {!record} is
    amortised O(1), and {!iter}/{!fold} stream the entries without
    materialising a list — the API large trace corpora are built on.
    {!entries} remains for small logs and tests. *)

type direction =
  | Tx  (** frame won arbitration and was transmitted *)
  | Rx of string  (** frame delivered to the named node *)
  | Fault of string
      (** an injected fault or error-confinement event affecting the
          frame; the string names the kind (e.g. ["drop"], ["corrupt"],
          ["retransmit"], ["bus-off"]) *)

type entry = {
  time : int;  (** microseconds *)
  node : string;  (** transmitter *)
  direction : direction;
  frame : Frame.t;
}

type t

val create : unit -> t
val record : t -> entry -> unit

val iter : t -> (entry -> unit) -> unit
(** In chronological order, O(1) extra memory. *)

val fold : t -> init:'a -> ('a -> entry -> 'a) -> 'a
(** In chronological order, O(1) extra memory. *)

val entries : t -> entry list
(** In chronological order. Materialises the whole log; prefer
    {!iter}/{!fold} on large logs. *)

val transmissions : t -> entry list
(** Only [Tx] entries. *)

val faults : t -> entry list
(** Only [Fault] entries. *)

val length : t -> int
val clear : t -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** {1 can-trace/1 codec}

    Stable NDJSON encoding of entries, one object per line:
    [{"t":<us>,"n":<node>,"d":"tx"|"rx:<node>"|"fault:<kind>",
    "id":<id>,["ext":true,]"data":[<bytes>]}]. Field order is fixed, so
    [entry_of_json] followed by [entry_to_json] reproduces the input
    byte-for-byte. Corpus files carry this schema tag in their header
    line (see [Serve.Trace_io]). *)

val schema : string
(** ["can-trace/1"]. *)

val entry_to_json : entry -> Obs.Json.t

val entry_of_json : Obs.Json.t -> (entry, string) result
(** Validates shape and frame invariants (id range, dlc, byte range);
    never raises. The tree form of the codec: {!entry_of_fields} on the
    object's members (first occurrence of a key wins). *)

(** The ["data"] member as a decoder found it. *)
type data_field =
  | Bytes of int list  (** an array of integers, in order *)
  | Non_integer_byte  (** an array holding something else *)
  | Not_an_array  (** missing, or not an array *)

val entry_of_fields :
  time:int option ->
  node:string option ->
  direction:string option ->
  id:int option ->
  extended:bool ->
  data:data_field ->
  (entry, string) result
(** The validation sequence every can-trace/1 decoder shares, so field
    order and error reasons cannot drift apart: ["t"], ["n"], ["d"], the
    direction's syntax, ["id"], ["data"], a negative time, then
    {!Frame.make}. A [None] field was missing or ill-typed ([Obs.Json]'s
    [to_int]/[to_str] gave [None]); [extended] is whether ["ext"] was
    [true]. Never raises. *)
