(** Events and transition labels.

    A visible event is a channel name applied to zero or more ground values,
    e.g. [send.reqSw.0]. Transition labels add the silent action [tau] and
    the termination signal [tick] (the paper's {m \checkmark}). *)

type t = {
  chan : string;
  args : Value.t list;
}

type label =
  | Tau
  | Tick
  | Vis of t

val event : string -> Value.t list -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val equal_label : label -> label -> bool
val compare_label : label -> label -> int
val pp_label : Format.formatter -> label -> unit
val label_to_string : label -> string

module Label_tbl : Hashtbl.S with type key = label
(** Hash tables keyed by label content ({!equal_label}). *)

val is_visible : label -> bool
(** [tau] and [tick] are not visible; [tick] is nevertheless recorded at the
    end of completed traces, as in the paper's {m \Sigma^{*\checkmark}}. *)
