(** Hand-written lexer for the CSPm subset.

    Handles CSPm's unusually dense symbol set ("[]", "[|", "[[", "[T=",
    "|~|", "|||", "{|", ...) with longest-match rules, [--] line comments
    and nestable [{- -}] block comments. *)

type token =
  | IDENT of string
  | NUM of int
  | KW_channel
  | KW_datatype
  | KW_nametype
  | KW_assert
  | KW_if
  | KW_then
  | KW_else
  | KW_not
  | KW_and
  | KW_or
  | KW_true
  | KW_false
  | KW_stop
  | KW_skip
  | LPAREN | RPAREN
  | LBRACE | RBRACE
  | LBRACKET | RBRACKET
  | LCHANSET  (** "{|" *)
  | RCHANSET  (** "|}" *)
  | LINTERFACE  (** "[|" *)
  | RINTERFACE  (** "|]" *)
  | EXTCHOICE  (** "[]" *)
  | INTCHOICE  (** "|~|" *)
  | INTERLEAVE  (** "|||" *)
  | PARBAR  (** "||" *)
  | LRENAME  (** "[[" *)
  | RRENAME  (** "]]" *)
  | REFINES_T  (** "[T=" *)
  | REFINES_F  (** "[F=" *)
  | REFINES_FD  (** "[FD=" *)
  | INTERRUPT_OP  (** "/\\" *)
  | SLIDE  (** "[>" *)
  | COLON_LBRACKET  (** ":[" *)
  | ARROW  (** "->" *)
  | LARROW  (** "<-" *)
  | SEMI
  | AMP
  | AT
  | COMMA
  | COLON
  | EQUALS
  | DOT
  | DOTDOT
  | QUESTION
  | BANG
  | BACKSLASH
  | PIPE
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | EQEQ | NEQ | LT | LE | GT | GE
  | EOF

exception Lex_error of string * Ast.pos

val tokens : string -> (token * Ast.pos) list
(** Tokenize a whole script; the last element is always [EOF].
    @raise Lex_error on an unexpected character or unterminated comment. *)

val token_to_string : token -> string

val is_ident_start : char -> bool
(** An ASCII letter or ['_']: the first character of an identifier or a
    keyword. *)
