(** One check's stop conditions, shared by every loop the check runs.

    A check compiles its implementation ([Reduce.compile_staged]), grows
    its specification's normal form ([Normalise]) and searches their
    product ([Search.product]). Each of those loops keeps its own unit of
    work, its own cadence and its own deterministic budget (tree states,
    closure size, spec nodes, pairs), but all of them stop through this
    module: one value per check holds its wall-clock deadline, its
    cancellation token and its heap watermark, and one exception,
    {!Exhausted}, says which budget ran out. *)

type kind =
  | Deadline  (** the wall-clock deadline passed *)
  | States  (** a compile or a normal form hit its state budget *)
  | Pairs  (** the product exploration hit its pair budget *)
  | Interrupt  (** the cancellation token tripped (signal, drain, …) *)
  | Memory  (** the heap watermark was crossed before the OOM killer *)

val kind_to_string : kind -> string
(** Stable lowercase names ("deadline", "states", "pairs", "interrupt",
    "memory") used by every JSON schema that mentions an exhausted
    budget. *)

val kind_of_string : string -> kind option

exception Exhausted of kind
(** A budget ran out: raised by {!poll} ([Deadline], [Interrupt],
    [Memory]) and by the loops' own deterministic budgets ([States],
    [Pairs]). *)

type t

val create :
  ?deadline:float ->
  ?armed:bool ->
  ?cancel:(unit -> bool) ->
  ?memory_limit_mb:int ->
  unit ->
  t
(** [deadline] seconds of wall budget, armed now unless [armed] is
    [false]; a resumed search replays its prefix unarmed and {!arm}s the
    deadline at the crossing. [cancel] is the cancellation token and
    [memory_limit_mb] the heap watermark in MiB. [create ()] never
    stops. *)

val seconds : t -> float option
(** The [deadline] the budget was created with. *)

val arm : t -> float option -> unit
(** [arm t (Some s)] arms a deadline [s] seconds from now, for every loop
    that shares [t]. *)

val left : t -> float option
(** Unconsumed wall budget in seconds, [None] while no deadline is
    armed. *)

val poll_due : int -> bool
(** The polling cadence of the compile and the search, by ticks of their
    own unit: true at ticks 1, 2, 4, ..., 128 and at every multiple of
    256, so a loop whose every step is expensive notices an expired
    deadline after a few steps, not after hundreds. *)

val poll : t -> unit
(** Read the token, the heap watermark and the clock, in that order.
    @raise Exhausted with [Interrupt], [Memory] or [Deadline]. *)
