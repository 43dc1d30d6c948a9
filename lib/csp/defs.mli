(** Definition environments: channel declarations, datatypes, nametypes,
    named process definitions and user functions.

    A [Defs.t] plays the role of a loaded CSPm script: it gives the
    operational semantics the channel field types needed to expand input
    prefixes, and resolves named process calls. *)

type t

exception Duplicate of string
exception Unknown_channel of string

val create : ?domain_limit:int -> unit -> t
(** [domain_limit] caps every enumerated channel-field domain
    (default [100_000]). *)

val copy : t -> t

val id : t -> int
(** A unique identifier per environment (fresh on [create] and [copy],
    also when called from concurrent domains); used to key transition
    caches. *)

val generation : t -> int
(** How many declarations ([declare_channel], [declare_datatype],
    [declare_nametype]) this environment has received, counting those
    inherited by a [copy]. Together with {!id} it names one state of the
    declarations: any later declaration changes the pair. *)

val domain_limit : t -> int
(** The domain cap this environment was created with (it affects every
    enumerated event set, so artifact digests must include it). *)

val domain : t -> Ty.t -> Value.t list
(** Enumerate a type's domain under this environment's declarations and
    domain limit. *)

(** {1 Declarations} *)

val declare_channel : t -> string -> Ty.t list -> unit
(** @raise Duplicate if the channel is already declared. *)

val declare_datatype : t -> string -> (string * Ty.t list) list -> unit
(** Declares the datatype and registers each constructor.
    @raise Duplicate on redeclaration of the type or of a constructor. *)

val declare_nametype : t -> string -> Ty.t -> unit

val define_proc : t -> string -> string list -> Proc.t -> unit
(** [define_proc t name params body].
    @raise Duplicate if [name] is already defined. *)

val define_fun : t -> string -> string list -> Expr.t -> unit

(** {1 Lookups} *)

val channel_type : t -> string -> Ty.t list option
val channels : t -> (string * Ty.t list) list
(** All declared channels in declaration order. *)

val proc : t -> string -> (string list * Proc.t) option
val procs : t -> (string * (string list * Proc.t)) list
val ty_lookup : t -> Ty.lookup
val fenv : t -> Expr.fenv
val funcs : t -> (string * (string list * Expr.t)) list
(** All user-defined functions, sorted by name. *)

val find_ctor : t -> string -> (string * Ty.t list) option
(** [find_ctor t c] returns the datatype name and argument types of
    constructor [c], if declared by any [datatype]. *)

val datatypes : t -> (string * (string * Ty.t list) list) list
val nametypes : t -> (string * Ty.t) list

(** {1 Domains} *)

val field_domain : t -> chan:string -> int -> Value.t list
(** Domain of the [i]-th (0-based) field of channel [chan].
    @raise Unknown_channel if undeclared, [Invalid_argument] if out of
    range. *)

val chan_events : t -> string -> Event.t list
(** Every event on a channel (cartesian product of its field domains).
    @raise Unknown_channel if undeclared. *)

val events_of : t -> Eventset.t -> Event.t list
(** Enumerate a symbolic event set against this environment. *)

val alphabet : t -> Event.t list
(** Every event of every declared channel. *)
