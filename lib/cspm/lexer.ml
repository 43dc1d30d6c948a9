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
  | LCHANSET
  | RCHANSET
  | LINTERFACE
  | RINTERFACE
  | EXTCHOICE
  | INTCHOICE
  | INTERLEAVE
  | PARBAR
  | LRENAME
  | RRENAME
  | REFINES_T
  | REFINES_F
  | REFINES_FD
  | INTERRUPT_OP
  | SLIDE
  | COLON_LBRACKET
  | ARROW
  | LARROW
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

let keyword = function
  | "channel" -> Some KW_channel
  | "datatype" -> Some KW_datatype
  | "nametype" -> Some KW_nametype
  | "assert" -> Some KW_assert
  | "if" -> Some KW_if
  | "then" -> Some KW_then
  | "else" -> Some KW_else
  | "not" -> Some KW_not
  | "and" -> Some KW_and
  | "or" -> Some KW_or
  | "true" -> Some KW_true
  | "false" -> Some KW_false
  | "STOP" -> Some KW_stop
  | "SKIP" -> Some KW_skip
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let tokens src =
  let n = String.length src in
  let line = ref 1 in
  let col = ref 1 in
  let i = ref 0 in
  let pos () = { Ast.line = !line; Ast.col = !col } in
  let fail msg = raise (Lex_error (msg, pos ())) in
  (* [peek k c]: the character [k] ahead is [c] *)
  let peek k c = !i + k < n && Char.equal src.[!i + k] c in
  let advance () =
    (match src.[!i] with
     | '\n' ->
       incr line;
       col := 1
     | _ -> incr col);
    incr i
  in
  let advance_n k =
    for _ = 1 to k do
      advance ()
    done
  in
  let rec skip_block_comment depth start_pos =
    if !i >= n then
      raise (Lex_error ("unterminated block comment", start_pos))
    else if peek 0 '{' && peek 1 '-' then begin
      advance_n 2;
      skip_block_comment (depth + 1) start_pos
    end
    else if peek 0 '-' && peek 1 '}' then begin
      advance_n 2;
      if depth > 1 then skip_block_comment (depth - 1) start_pos
    end
    else begin
      advance ();
      skip_block_comment depth start_pos
    end
  in
  let acc = ref [] in
  let emit tok p = acc := (tok, p) :: !acc in
  let rec loop () =
    if !i >= n then emit EOF (pos ())
    else if is_space src.[!i] then begin
      (* whitespace gets no position record *)
      advance ();
      loop ()
    end
    else begin
      let c = src.[!i] in
      let p = pos () in
      (match c with
       | '-' when peek 1 '-' ->
         (* line comment *)
         while !i < n && src.[!i] <> '\n' do
           advance ()
         done
       | '{' when peek 1 '-' ->
         advance_n 2;
         skip_block_comment 1 p
       | '{' when peek 1 '|' ->
         advance_n 2;
         emit LCHANSET p
       | '{' ->
         advance ();
         emit LBRACE p
       | '}' ->
         advance ();
         emit RBRACE p
       | '|' when peek 1 '}' ->
         advance_n 2;
         emit RCHANSET p
       | '|' when peek 1 ']' ->
         advance_n 2;
         emit RINTERFACE p
       | '|' when peek 1 '~' && peek 2 '|' ->
         advance_n 3;
         emit INTCHOICE p
       | '|' when peek 1 '|' && peek 2 '|' ->
         advance_n 3;
         emit INTERLEAVE p
       | '|' when peek 1 '|' ->
         advance_n 2;
         emit PARBAR p
       | '|' ->
         advance ();
         emit PIPE p
       | '[' when peek 1 '|' ->
         advance_n 2;
         emit LINTERFACE p
       | '[' when peek 1 ']' ->
         advance_n 2;
         emit EXTCHOICE p
       | '[' when peek 1 '[' ->
         advance_n 2;
         emit LRENAME p
       | '[' when peek 1 'T' && peek 2 '=' ->
         advance_n 3;
         emit REFINES_T p
       | '[' when peek 1 'F' && peek 2 'D' && peek 3 '='
         ->
         advance_n 4;
         emit REFINES_FD p
       | '[' when peek 1 'F' && peek 2 '=' ->
         advance_n 3;
         emit REFINES_F p
       | '[' when peek 1 '>' ->
         advance_n 2;
         emit SLIDE p
       | '[' ->
         advance ();
         emit LBRACKET p
       | ']' when peek 1 ']' ->
         advance_n 2;
         emit RRENAME p
       | ']' ->
         advance ();
         emit RBRACKET p
       | ':' when peek 1 '[' ->
         advance_n 2;
         emit COLON_LBRACKET p
       | ':' ->
         advance ();
         emit COLON p
       | '-' when peek 1 '>' ->
         advance_n 2;
         emit ARROW p
       | '-' ->
         advance ();
         emit MINUS p
       | '<' when peek 1 '-' ->
         advance_n 2;
         emit LARROW p
       | '<' when peek 1 '=' ->
         advance_n 2;
         emit LE p
       | '<' ->
         advance ();
         emit LT p
       | '>' when peek 1 '=' ->
         advance_n 2;
         emit GE p
       | '>' ->
         advance ();
         emit GT p
       | '=' when peek 1 '=' ->
         advance_n 2;
         emit EQEQ p
       | '=' ->
         advance ();
         emit EQUALS p
       | '!' when peek 1 '=' ->
         advance_n 2;
         emit NEQ p
       | '!' ->
         advance ();
         emit BANG p
       | '.' when peek 1 '.' ->
         advance_n 2;
         emit DOTDOT p
       | '.' ->
         advance ();
         emit DOT p
       | '(' ->
         advance ();
         emit LPAREN p
       | ')' ->
         advance ();
         emit RPAREN p
       | ';' ->
         advance ();
         emit SEMI p
       | '&' ->
         advance ();
         emit AMP p
       | '@' ->
         advance ();
         emit AT p
       | ',' ->
         advance ();
         emit COMMA p
       | '?' ->
         advance ();
         emit QUESTION p
       | '/' when peek 1 '\\' ->
         advance_n 2;
         emit INTERRUPT_OP p
       | '\\' ->
         advance ();
         emit BACKSLASH p
       | '+' ->
         advance ();
         emit PLUS p
       | '*' ->
         advance ();
         emit STAR p
       | '/' ->
         advance ();
         emit SLASH p
       | '%' ->
         advance ();
         emit PERCENT p
       | c when is_digit c ->
         let start = !i in
         while !i < n && is_digit src.[!i] do
           advance ()
         done;
         let text = String.sub src start (!i - start) in
         (match int_of_string_opt text with
          | Some v -> emit (NUM v) p
          | None ->
            raise
              (Lex_error
                 (Printf.sprintf "integer literal %s out of range" text, p)))
       | c when is_ident_start c ->
         let start = !i in
         while !i < n && is_ident_char src.[!i] do
           advance ()
         done;
         let name = String.sub src start (!i - start) in
         (match keyword name with
          | Some kw -> emit kw p
          | None -> emit (IDENT name) p)
       | c -> fail (Printf.sprintf "unexpected character %C" c));
      if
        match !acc with
        | (EOF, _) :: _ -> false
        | _ -> true
      then loop ()
    end
  in
  loop ();
  (match !acc with
   | (EOF, _) :: _ -> ()
   | _ -> emit EOF (pos ()));
  List.rev !acc

let token_to_string = function
  | IDENT s -> s
  | NUM n -> string_of_int n
  | KW_channel -> "channel"
  | KW_datatype -> "datatype"
  | KW_nametype -> "nametype"
  | KW_assert -> "assert"
  | KW_if -> "if"
  | KW_then -> "then"
  | KW_else -> "else"
  | KW_not -> "not"
  | KW_and -> "and"
  | KW_or -> "or"
  | KW_true -> "true"
  | KW_false -> "false"
  | KW_stop -> "STOP"
  | KW_skip -> "SKIP"
  | LPAREN -> "(" | RPAREN -> ")"
  | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | LCHANSET -> "{|" | RCHANSET -> "|}"
  | LINTERFACE -> "[|" | RINTERFACE -> "|]"
  | EXTCHOICE -> "[]"
  | INTCHOICE -> "|~|"
  | INTERLEAVE -> "|||"
  | PARBAR -> "||"
  | LRENAME -> "[[" | RRENAME -> "]]"
  | REFINES_T -> "[T="
  | REFINES_F -> "[F="
  | REFINES_FD -> "[FD="
  | INTERRUPT_OP -> "/\\"
  | SLIDE -> "[>"
  | COLON_LBRACKET -> ":["
  | ARROW -> "->"
  | LARROW -> "<-"
  | SEMI -> ";"
  | AMP -> "&"
  | AT -> "@"
  | COMMA -> ","
  | COLON -> ":"
  | EQUALS -> "="
  | DOT -> "."
  | DOTDOT -> ".."
  | QUESTION -> "?"
  | BANG -> "!"
  | BACKSLASH -> "\\"
  | PIPE -> "|"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | EQEQ -> "==" | NEQ -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | EOF -> "<eof>"
