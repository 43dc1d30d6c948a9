(** Content-addressed cache of compiled, normalised, and reduced LTSs —
    the incremental-re-checking backbone of the daemon (ROADMAP item 3).

    Keys are hex digests over the elaborated process term, the transitive
    closure of the definitions it can reach, every global declaration, and
    a fingerprint of the compilation parameters (state budget; for reduced
    graphs also the model, the reduction pipeline, and the specification
    digest, because the dead-event pass is computed against the spec's
    normal-form alphabet). Editing one handler therefore invalidates only
    the components that can reach it; everything else is a digest hit.

    Keying is linear in script size: the declarations are digested once
    per environment state ({!Defs.id} and {!Defs.generation}), each
    hash-consed node once (the memo keeps its terms alive, so a script
    elaborated again finds them), and only the reachable definitions per
    key. A term keyed before, in an environment with the same
    declarations whose reachable definitions resolve to the same bodies,
    gets its earlier digest back without re-serialising anything.

    All digest/fingerprint construction for cached artifacts lives here —
    [tools/lint.ml] keeps [Digest] out of the rest of [lib/] so producers
    and consumers cannot drift apart.

    The store is thread-safe (one mutex; the daemon shares a cache across
    jobs while assertions run on concurrent domains) and bounded by
    resident states with LRU eviction. An optional
    persistence hook spills entries to a directory through an injected
    atomic writer (e.g. [Serve.Fsio]) and reloads them in later processes;
    marshalled terms are re-admitted through the hash-consing smart
    constructors on load, so physical-equality invariants hold. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident_states : int;
      (** summed states of live entries: graph states, and the states a
          normal form has materialised so far *)
  resident_entries : int;
}

(** Where and how entries are spilled to disk. [write ~path payload] must
    be atomic (temp + rename) and durable; the cache treats write failures
    as non-fatal and unreadable/foreign files as misses. *)
type persistence = {
  dir : string;
  write : path:string -> string -> unit;
}

type value =
  | Lts_graph of Lts.t  (** a compiled implementation graph *)
  | Norm_spec of Normalise.t
      (** a specification's normal form, as far as checks materialised
          it; it keeps growing while it is cached *)
  | Reduced of Lts.t * Reduce.pass_stat list
      (** an implementation graph after the graph passes of a pipeline *)

val create :
  ?obs:Obs.t ->
  ?persist:persistence ->
  ?max_resident_states:int ->
  unit ->
  t
(** A fresh cache. [max_resident_states] (default [4_000_000]) bounds the
    summed state count of in-memory entries; least-recently-used entries
    are evicted past it. [obs] receives
    [serve.cache_{hits,misses,evictions,resident_states}]. *)

val stats : t -> stats

val json_of_stats : stats -> Obs.Json.t
(** The [cache] object of the [cspm-check/1] / [cspm-checkd/1] schemas. *)

(** {1 Keys}

    Only [Complete] compilation results may be stored under these keys:
    a [Partial] graph depends on the deadline/cancel state of the run that
    produced it and is not content-addressed. *)

val digest_term : Defs.t -> Proc.t -> string
(** The raw content digest of a term under an environment: global
    declarations + domain limit + reachable definition closure + the term
    itself. Building block of the keys below; exposed for tests and for
    incremental-invalidation diagnostics. *)

val script_digest : pipeline:Reduce.pipeline -> string -> string
(** The fingerprint of a checked script: its raw source and the
    reduction pipeline it runs under. A [cspm-checkpoint/1] document
    carries it, whether [cspm_check] or the daemon wrote it, and a
    resume under another script or pipeline is refused. Not LTS keying. *)

val spec_key : max_states:int -> Defs.t -> Proc.t -> string
(** Key of a specification's normal form ([Norm_spec]). *)

val impl_key : max_states:int -> Defs.t -> Proc.t -> string
(** Key of an implementation compiled with [Reduce.compile_staged]
    ([Lts_graph]), numbered as that compile numbers it. Every check that
    compiles an implementation reads this entry: FD, deadlock and
    divergence checks renumber it as [Lts.compile] would. *)

val reduced_key :
  model:[ `Traces | `Failures | `Fd ] ->
  pipeline:Reduce.pipeline ->
  spec:string ->
  impl:string ->
  string
(** Key of a reduced implementation graph ([Reduced]). [spec]/[impl] are
    the component keys from {!spec_key}/{!impl_key}; the pipeline must be
    the [Reduce.effective] one. *)

(** {1 Store} *)

val find : t -> string -> value option
(** Memory first, then the persistence directory (re-admitting the entry
    to memory). Counts one hit or one miss. *)

val add : t -> string -> value -> unit
(** Insert (first writer wins on a race; later identical inserts are
    no-ops) and spill to the persistence directory if configured — except
    a [Norm_spec], which {!spill} writes once a check has grown it. *)

val spill : t -> string -> unit
(** Write the cached normal form under the key to the persistence
    directory if it has grown since it was last written (or loaded): the
    materialised states and rows, never a closure. A no-op without
    persistence or for other values. *)

(** {1 Marshalling helpers} *)

val reintern_proc : Proc.t -> Proc.t
(** Rebuild a term that lost hash-consing identity (e.g. through
    [Marshal]) bottom-up through the smart constructors, preserving
    internal sharing. Exposed for tests. *)
