(** Elaboration of a parsed CSPm script into a {!Csp.Defs.t} environment
    plus its [assert] declarations.

    CSPm keeps processes, functions and values in one namespace; this module
    classifies each top-level definition as a process or a function by a
    fixpoint over the definition graph: a body containing a process
    construct ([STOP], prefix, choice, parallel, ...) is a process, a body
    whose head is a reference inherits the referent's class, and anything
    else is a function. *)

exception Elab_error of string * Ast.pos option

type t = {
  defs : Csp.Defs.t;
  assertions : (Ast.assertion * Ast.pos) list;
  positions : (string * Ast.pos) list;
      (** Source position of each top-level declared name (channels,
          datatypes, nametypes, definitions), for diagnostics. *)
}

val load : Ast.script -> t
(** @raise Elab_error on unknown identifiers, undeclared channels, arity
    mismatches, or an expression in process position (and vice versa). *)

(** A memo of parsed declarations, for a caller that loads long runs of
    nearly identical scripts (the daemon's runner). A memoised load cuts
    the source at each line that starts with an ASCII letter or ['_'],
    parses only the pieces the last script it kept did not have, and
    shifts the cached declarations' lines to where each piece now starts;
    if a piece does not parse on its own, the whole script is parsed
    instead. The AST, its positions and every error are those of a load
    without the memo. Not safe to share between domains. *)
module Memo : sig
  type t

  val create : unit -> t
  (** An empty memo. It keeps the pieces of the last script whose pieces
      all parsed, and never a script over 512 KiB: such a script is
      parsed whole and leaves the memo as it was. *)
end

val parse : ?memo:Memo.t -> string -> Ast.script
(** {!Parser.script}, through [memo] when one is given; the result is the
    same. The one caller of {!Parser.script} in the library and the
    binaries.
    @raise Parser.Parse_error or {!Lexer.Lex_error} on syntax errors. *)

val load_string : ?obs:Obs.t -> ?memo:Memo.t -> string -> t
(** Parse then {!load}; [obs] records [cspm.parse] and [cspm.elaborate]
    spans around the two stages. With [memo], the parse goes through it;
    the result is the same.
    @raise Parser.Parse_error or {!Lexer.Lex_error} on syntax errors. *)

val load_source :
  ?obs:Obs.t -> ?memo:Memo.t -> ?name:string -> string -> (t, string) result
(** {!load_string}, with a syntax, lexical or elaboration error turned
    into one message: [name:line:col: syntax error: ...],
    [name:line:col: lexical error: ...], [name:line:col: ...], or
    [name: ...] for an elaboration error with no position. Without
    [name] the message leads with the position alone, or is bare. The
    one loader behind [cspm_check], the other tools and the daemon. *)

val proc_of_term : t -> Ast.term -> Csp.Proc.t
(** Elaborate a closed process term against a loaded script (used by the
    CLI and tests). *)

val expr_of_term : t -> Ast.term -> Csp.Expr.t

val eventset_of_term : t -> Ast.term -> Csp.Eventset.t
