(** Streaming trace containment: check recorded traces against a
    specification at constant memory per stream.

    Refinement checking explores the product of the specification's
    normal form with the implementation's state space. Offline runtime
    verification (Luckcuck, PAPERS.md) needs much less: the recorded
    execution {e is} the implementation, a single trace, so checking it
    is trace membership — walk the specification's normal form one
    visible event at a time. No search, no frontier; a cursor is one
    node index, so millions of concurrent streams fit in memory and
    every stream is independent (embarrassingly parallel across
    domains).

    The specification is compiled once per check ({!compile}, fronted by
    the content-addressed {!Cache} exactly like [Refine]); the per-event
    step is a hash-table lookup on the current node. *)

type t
(** A compiled checker: the specification's normal form with per-node
    [label -> node] transition tables and the derived channel
    alphabet. Immutable after {!compile}; safe to share across
    domains. *)

val compile :
  ?config:Check_config.t ->
  ?alphabet:string list ->
  Defs.t ->
  Proc.t ->
  (t, string) result
(** Normalise the whole specification ([config] supplies the state
    budget, observability handle, and the optional {!Cache}: a cached
    normal form is shared with the refinement checks, and forcing it
    builds only what they have not). Forcing polls [config.deadline]
    (counted from the call) and [config.cancel] as a check's normal form
    does. [Error] reports a specification whose states exceed the
    budget, or a compile that ran out of its deadline or was
    interrupted.

    [alphabet] is the set of channels the checker considers observable.
    Events on channels outside it are {e skipped}, not rejected — a
    recorded log usually contains traffic the requirement never
    mentions, and trace containment is defined over the specification's
    alphabet. Defaults to the channels reachable in the normal form. *)

val alphabet : t -> string list
(** Sorted observable channels. *)

val num_nodes : t -> int

(** {1 Cursors}

    A cursor is the O(1) per-stream state: current normal-form node,
    events consumed, and the latched verdict. Cursors are immutable
    values — {!step} returns a new cursor — so streams can be advanced
    from any domain without synchronisation. *)

type verdict =
  | Accepted
  | Rejected of {
      position : int;
          (** 0-based index of the offending label among the labels fed
              to the cursor (tau excluded) *)
      offending : Event.label;
      expected : Event.label list;
          (** the labels the specification allowed at that point *)
    }

type cursor

val start : t -> cursor

val step : t -> cursor -> Event.label -> cursor
(** Advance by one label. Out-of-alphabet events and [Tau] are skipped
    ([Tau] does not count a position); [Tick] is accepted only where the
    specification can terminate and pins the cursor to a terminal state
    (any later label rejects). Once rejected, the verdict latches and
    further steps are no-ops. *)

val verdict : cursor -> verdict
val consumed : cursor -> int
(** Labels fed so far (tau excluded), including skipped ones. *)

val skipped : cursor -> int
(** Out-of-alphabet events skipped so far. *)

val check_trace : t -> Event.label list -> verdict
