(** Symbolic sets of visible events, used for synchronization alphabets,
    hiding sets and interface parallel.

    Sets are kept symbolic ([{| c |}]-style channel productions, explicit
    event lists, unions and differences) so that membership testing — all
    the operational semantics needs — never requires enumerating channel
    domains. Enumeration is available when a channel-domain oracle is
    supplied (e.g. for [RUN] and intruder construction). *)

type t

val empty : t
val chan : string -> t
(** All events on one channel: CSPm [{| c |}]. *)

val chans : string list -> t

val prefixed : string -> Value.t list -> t
(** FDR-style partial production [{| c.v1...vk |}]: every event on channel
    [c] whose first [k] arguments equal the given values. With an empty
    prefix this is just [chan c]. *)

val events : Event.t list -> t
val union : t -> t -> t
val union_all : t list -> t
val diff : t -> t -> t

val mem : t -> Event.t -> bool

val by_channel : t -> bool
(** Whether {!mem} reads only an event's channel: true for sets built from
    whole channels ([{| c |}]) by union and difference. *)

val is_empty_syntactically : t -> bool
(** True only for sets built from [empty]/empty lists (no oracle needed). *)

val channels_mentioned : t -> string list
(** Channel names appearing anywhere in the set expression (sorted). *)

val enumerate : chan_events:(string -> Event.t list) -> t -> Event.t list
(** Concrete elements, sorted and deduplicated. [chan_events c] must return
    every event on channel [c]. *)

val equal : t -> t -> bool
(** Syntactic equality of the set expressions (not extensional). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
