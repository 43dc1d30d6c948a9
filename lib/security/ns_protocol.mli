(** The Needham-Schroeder public-key protocol with a lazy-spy intruder —
    the paper's motivating historical example. [~fixed:false] is the
    original (broken) protocol exhibiting Lowe's man-in-the-middle attack;
    [~fixed:true] adds the responder identity to message 2 (Lowe's fix).

    Beyond its historical role, the fixed variant is this library's
    stock "large check": its product space is big enough to exercise the
    budgeted refinement engine ({!Csp.Refine.check} with [?deadline]). *)

val agent_a : Csp.Value.t
val agent_b : Csp.Value.t
val agent_i : Csp.Value.t
(** The compromised agent whose secrets the spy owns. *)

val build : fixed:bool -> Csp.Defs.t * Csp.Proc.t
(** The protocol system: initiator ||| responder, composed with the lazy
    spy as the medium. *)

val authentication_spec : Csp.Defs.t -> Csp.Proc.t
(** "B commits to a session with A only after A really ran the protocol
    with B" as a trace specification. *)

val default_config : Csp.Check_config.t
(** {!Csp.Check_config.default} with [max_states] raised to [2_000_000]
    — the NS product space is the stock large check. *)

val check :
  ?config:Csp.Check_config.t -> fixed:bool -> unit -> Csp.Refine.result
(** Build and check authentication. Budgets, the interner, and
    observability all come from [config] (default {!default_config}); a
    [config.deadline] makes the check budgeted — exhausting it returns
    [Inconclusive] rather than running to completion. The verdict and
    counts are identical under any obs sink. *)
