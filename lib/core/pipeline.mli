(** The end-to-end workflow of the paper's Fig. 1: CAPL sources (plus a CAN
    database) → lex → parse → model extraction → CSPm emission → reload →
    refinement checking.

    A {!system} bundles the shared definition environment (channels and
    signal types from the database, process definitions from extraction),
    the per-node models and the composed system process
    [N1 [A1 || A2∪...] N2 ...] — the SYSTEM = VMG ∥ ECU of Section V-B. *)

type system = {
  defs : Csp.Defs.t;
  db : Candb.Dbc_ast.t;
  config : Extract.config;
  programs : (string * Capl.Ast.program) list;
  nodes : (string * Extract.node_model) list;
  composed : Csp.Proc.t;
}

exception Pipeline_error of string

val compose : (Csp.Proc.t * Csp.Eventset.t) list -> Csp.Proc.t
(** Alphabetized parallel composition of processes: nodes synchronize
    exactly on the channels their alphabets share (CAN broadcast
    semantics). Empty list composes to [SKIP]. *)

val build :
  ?config:Extract.config ->
  db:Candb.Dbc_ast.t ->
  (string * Capl.Ast.program) list ->
  system
(** Declare the database's channels, then extract every node.
    @raise Extract.Unsupported (non-lenient config) or
    {!Csp.Defs.Duplicate}. *)

val parse_sources :
  dbc:string ->
  (string * string) list ->
  Candb.Dbc_ast.t * (string * Capl.Ast.program) list
(** Parse the DBC text and the CAPL sources without extracting anything.
    @raise Pipeline_error wrapping parse errors with the offending input's
    name. *)

val build_from_sources :
  ?config:Extract.config ->
  dbc:string ->
  (string * string) list ->
  system
(** {!parse_sources} then {!build}.
    @raise Pipeline_error wrapping parse errors with the offending input's
    name. *)

val lint_programs :
  ?obs:Obs.t ->
  db:Candb.Dbc_ast.t ->
  (string * Capl.Ast.program) list ->
  Analysis.Diag.t list
(** {!Analysis.Capl_lint.lint_nodes} over parsed programs, checked
    against the database — usable before extraction, which in strict
    mode may reject the very defects the lint reports. *)

val warnings : system -> (string * Extract.warning) list
(** All extraction warnings, tagged with their node. *)

val lint : ?obs:Obs.t -> system -> Analysis.Diag.t list
(** {!Analysis.Capl_lint.lint_nodes} over the system's node programs,
    checked against its CAN database. Pure — never affects extraction
    output or refinement verdicts. *)

val emit_script : ?assertions:Cspm.Ast.assertion list -> system -> string
(** Render the whole system as a CSPm script (the artifact of the paper's
    Fig. 3), headed by a provenance comment. *)

val reload : ?assertions:Cspm.Ast.assertion list -> system -> Cspm.Elaborate.t
(** Emit and re-parse the script — the FDR hand-off step; the result is
    checkable with {!Cspm.Check}. *)

val check_refinement :
  ?config:Csp.Check_config.t ->
  ?model:Csp.Refine.model ->
  system ->
  spec:Csp.Proc.t ->
  Csp.Refine.result
(** Check [spec ⊑ SYSTEM] directly on the in-memory model. Budgets and
    observability come from [config]. *)
