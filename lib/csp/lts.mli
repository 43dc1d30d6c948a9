(** Explicit labelled transition systems, compiled from process terms by
    breadth-first exploration of the operational semantics. *)

type t = {
  initial : int;
  states : Proc.t array;  (** index to the ground term it denotes *)
  transitions : (Event.label * int) list array;  (** per-state, sorted *)
}

exception State_limit of int
(** Raised by {!compile} when exploration exceeds the state bound; carries
    the bound. *)

type progress = {
  interned : int;
      (** states the compile interned before it stopped, across every node
          of [Reduce.compile_staged]'s combinator tree *)
  frontier : int;
      (** root states discovered and not yet explored, the one being
          expanded included: at least 1 *)
  reason : Budget.kind;  (** which budget ran out *)
}

type compile_result =
  | Complete of t
  | Partial of progress
      (** [Reduce.compile_staged] stopped early; [progress] says how far
          it got. Useful for statistics, not for verdicts. *)

val compile : ?max_states:int -> Defs.t -> Proc.t -> t
(** Compile the reachable state graph of a ground term
    (default [max_states] = [1_000_000]), stepping whole terms through
    {!Semantics}: states are numbered in breadth-first discovery order,
    each row's targets in row order. This is the reference compiler the
    checks' graphs are tested against; the checks themselves compile
    through [Reduce.compile_staged] and {!renumber}.
    @raise State_limit when the state bound is exceeded. *)

val num_states : t -> int
val num_transitions : t -> int

val transitions_of : t -> int -> (Event.label * int) list
val state_term : t -> int -> Proc.t

val renumber : t -> t
(** Number the states reachable from the initial one in breadth-first
    discovery order, each row's targets in row order, keeping every row's
    order: the numbering {!compile} gives. Unreachable states are
    dropped. *)

val initials : t -> int -> Event.label list
(** Labels offered by a state (sorted, deduplicated). *)

val is_stable : t -> int -> bool
(** No outgoing [tau]. *)

val tau_closure : t -> int list -> int list
(** States reachable from the given set via zero or more [tau] steps
    (sorted, deduplicated). *)

val deadlocks : t -> int list
(** Stable states with no transitions at all, excluding terminated
    ([Omega]) states. *)

val path_to : t -> (int -> bool) -> (Event.label list * int) option
(** BFS for the first state satisfying the predicate; returns the label
    path from the initial state. *)

val trace_path_to : t -> (int -> bool) -> (Event.t list * int) option
(** Like {!path_to} but keeps only visible events (the counterexample-trace
    view of the path). *)

val tau_sccs : t -> int array * int
(** The strongly connected components of the [tau] edges: an SCC id per
    state and the SCC count. Ids follow completion order, a reverse
    topological order of the condensation: every [tau]-successor SCC of
    [c] has an id smaller than [c]. *)

val divergences : t -> int list
(** States lying on a [tau]-cycle (each such state can diverge): members
    of a [tau]-SCC of two or more states, or with a [tau] self-loop.
    Sorted. *)

val pp_stats : Format.formatter -> t -> unit

val to_dot : ?max_label:int -> t -> string
(** Graphviz rendering of the state graph (the visualisation role of the
    FDR GUI): states are numbered nodes (the initial one doubled), edges
    are labelled with their event ([tau] dashed). State terms longer than
    [max_label] characters (default 40) are elided in tooltips. *)
