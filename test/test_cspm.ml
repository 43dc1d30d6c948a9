(* Tests for the CSPm front end: lexing, parsing, elaboration, printing
   (round trip), and assertion checking. *)

open Cspm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map fst (Lexer.tokens src)

let test_lexer_symbols () =
  check_int "dense symbols"
    (List.length
       [ Lexer.EXTCHOICE; Lexer.INTCHOICE; Lexer.INTERLEAVE; Lexer.LINTERFACE;
         Lexer.RINTERFACE; Lexer.LCHANSET; Lexer.RCHANSET; Lexer.REFINES_T;
         Lexer.REFINES_F; Lexer.EOF ])
    (List.length (toks "[] |~| ||| [| |] {| |} [T= [F="));
  (match toks "a -> b" with
   | [ Lexer.IDENT "a"; Lexer.ARROW; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "arrow lexing");
  match toks "P [[ a <- b ]]" with
  | [ Lexer.IDENT "P"; Lexer.LRENAME; Lexer.IDENT "a"; Lexer.LARROW;
      Lexer.IDENT "b"; Lexer.RRENAME; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "rename lexing"

let test_lexer_comments () =
  (match toks "a -- comment\nb" with
   | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "line comment");
  (match toks "a {- x {- nested -} y -} b" with
   | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "nested block comment");
  try
    ignore (toks "{- unterminated");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error _ -> ()

let test_lexer_positions () =
  match Lexer.tokens "a\n  b" with
  | [ (_, p1); (_, p2); _ ] ->
    check_int "line 1" 1 p1.Ast.line;
    check_int "line 2" 2 p2.Ast.line;
    check_int "col 3" 3 p2.Ast.col
  | _ -> Alcotest.fail "token count"

(* A literal wider than the native int must be a positioned lexical
   error, not an uncaught [Failure "int_of_string"]. *)
let test_lexer_int_overflow () =
  (match toks (string_of_int max_int) with
   | [ Lexer.NUM n; Lexer.EOF ] -> check_int "max_int still lexes" max_int n
   | _ -> Alcotest.fail "max_int lexing");
  try
    ignore (Lexer.tokens "P = c!99999999999999999999 -> STOP");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error (msg, pos) ->
    check_bool "message names the literal" true
      (Helpers.contains msg "99999999999999999999");
    check_bool "message says out of range" true (Helpers.contains msg "out of range");
    check_int "error line" 1 pos.Ast.line;
    check_int "error col is the token start" 7 pos.Ast.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_precedence () =
  (* ; binds tighter than [], which binds tighter than |||, loosest \ *)
  (match Parser.term "P; Q [] R" with
   | Ast.T_extchoice (Ast.T_seq _, Ast.T_id "R") -> ()
   | t -> Alcotest.failf "seq vs choice: %a" Print.pp_term t);
  (match Parser.term "P [] Q ||| R" with
   | Ast.T_interleave (Ast.T_extchoice _, Ast.T_id "R") -> ()
   | t -> Alcotest.failf "choice vs interleave: %a" Print.pp_term t);
  (match Parser.term "P ||| Q \\ {| a |}" with
   | Ast.T_hide (Ast.T_interleave _, _) -> ()
   | t -> Alcotest.failf "hide loosest: %a" Print.pp_term t);
  match Parser.term "a -> b -> STOP [] c -> STOP" with
  | Ast.T_extchoice (Ast.T_prefix _, Ast.T_prefix _) -> ()
  | t -> Alcotest.failf "prefix vs choice: %a" Print.pp_term t

let test_parse_prefix_fields () =
  match Parser.term "c!1?x:{0..2}.y -> STOP" with
  | Ast.T_prefix ({ Ast.chan = "c"; fields }, Ast.T_stop) ->
    (match fields with
     | [ Ast.F_out (Ast.T_num 1);
         Ast.F_in ("x", Some (Ast.T_range (Ast.T_num 0, Ast.T_num 2)));
         Ast.F_dot (Ast.T_id "y") ] -> ()
     | _ -> Alcotest.fail "field shapes")
  | _ -> Alcotest.fail "prefix shape"

let test_parse_backtracking () =
  (* an identifier that is not a communication parses as an expression *)
  (match Parser.term "x + 1" with
   | Ast.T_bin (Ast.B_add, Ast.T_id "x", Ast.T_num 1) -> ()
   | _ -> Alcotest.fail "expression after failed comm parse");
  match Parser.term "f(1, 2)" with
  | Ast.T_app ("f", [ Ast.T_num 1; Ast.T_num 2 ]) -> ()
  | _ -> Alcotest.fail "application"

let test_parse_declarations () =
  let script =
    Parser.script
      "datatype D = x | y.{0..1}\n\
       nametype N = {1..4}\n\
       channel c, d : D.N\n\
       P(n) = c!x!n -> P(n)\n\
       assert P(1) [T= P(1)\n\
       assert P(1) :[deadlock free [F]]\n\
       assert P(1) :[divergence free]"
  in
  check_int "declaration count" 7 (List.length script.Ast.decls)

let test_parse_replicated () =
  match Parser.term "[] x : {0..3} @ c!x -> STOP" with
  | Ast.T_repl (Ast.R_ext, "x", Ast.T_range _, Ast.T_prefix _) -> ()
  | _ -> Alcotest.fail "replicated external choice"

let test_parse_errors_have_positions () =
  try
    ignore (Parser.script "channel c :");
    Alcotest.fail "expected Parse_error"
  with Parser.Parse_error (_, pos) -> check_bool "line known" true (pos.Ast.line >= 1)

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

let ota_script =
  {q|
datatype Msg = reqSw | rptSw | reqApp | rptUpd
channel send : Msg
channel rec : Msg
double(x) = x + x
SP02 = send!reqSw -> rec!rptSw -> SP02
VMG = send!reqSw -> rec?r -> VMG
ECU = send?m -> rec!rptSw -> ECU
SYSTEM = VMG [| {| send, rec |} |] ECU
assert SP02 [T= SYSTEM
|q}

let test_elaborate_classification () =
  let loaded = Elaborate.load_string ota_script in
  let defs = loaded.Elaborate.defs in
  check_bool "SP02 is a process" true (Option.is_some (Csp.Defs.proc defs "SP02"));
  check_bool "SYSTEM is a process" true (Option.is_some (Csp.Defs.proc defs "SYSTEM"));
  check_bool "double is a function" true (Option.is_some (Csp.Defs.fenv defs "double"));
  check_bool "double is not a process" true (Option.is_none (Csp.Defs.proc defs "double"))

let test_elaborate_errors () =
  let expect_error src =
    try
      ignore (Elaborate.load_string src);
      Alcotest.failf "expected Elab_error for %s" src
    with Elaborate.Elab_error _ -> ()
  in
  expect_error "P = undeclared!1 -> STOP";
  expect_error "channel c : {0..1}\nP = c!1 -> Q";
  expect_error "channel c : Int\nP = c?x -> STOP";
  expect_error "channel c : {0..1}\nP = c!1 -> STOP\nP = STOP"

let test_check_assertions () =
  let loaded = Elaborate.load_string ota_script in
  let outcomes = Check.run loaded in
  check_int "one assertion" 1 (List.length outcomes);
  check_bool "SP02 holds" true (Check.all_pass outcomes)

let test_counterexample_through_cspm () =
  let bad =
    ota_script ^ "\nBAD = send?m -> rec!rptUpd -> BAD\nassert SP02 [T= VMG [| {| send, rec |} |] BAD"
  in
  let outcomes = Check.run (Elaborate.load_string bad) in
  check_bool "flaw found" false (Check.all_pass outcomes)

(* ------------------------------------------------------------------ *)
(* Budget slicing and scheduling                                       *)
(* ------------------------------------------------------------------ *)

let test_slice_arithmetic () =
  let check_float = Alcotest.(check (float 1e-9)) in
  check_float "even split" 2.5 (Check.slice ~remaining_wall:10.0 ~remaining:4);
  check_float "last assertion gets everything" 9.0
    (Check.slice ~remaining_wall:9.0 ~remaining:1);
  check_float "overspent budget clamps to zero" 0.0
    (Check.slice ~remaining_wall:(-3.0) ~remaining:2);
  check_float "no assertions left passes the wall through" 7.0
    (Check.slice ~remaining_wall:7.0 ~remaining:0)

(* Nine trivial assertions followed by one that actually has to search:
   under the old fixed up-front split the hard one only ever saw a tenth
   of the budget; with rolling slices the time the trivial ones leave
   unused carries forward and the whole script passes under one
   --timeout. *)
let rolling_script =
  let trivial = "assert T [T= T\n" in
  "channel c : {0..9}\n\
   P(n) = c!n -> P((n+1)%10)\n\
   T = c?x -> T\n\
   SYS = P(0) ||| P(2) ||| P(4) ||| P(6)\n"
  ^ String.concat "" (List.init 9 (fun _ -> trivial))
  ^ "assert T [T= SYS\n"

let test_rolling_budget () =
  let loaded = Elaborate.load_string rolling_script in
  let outcomes = Check.run ~config:Csp.Check_config.(default |> with_deadline 60.0) loaded in
  check_int "ten assertions" 10 (List.length outcomes);
  check_bool "all pass under one rolling budget" true (Check.all_pass outcomes)

(* Without a deadline, [run ~workers] schedules whole assertions onto
   idle domains; outcomes must come back in script order with the same
   verdicts as the sequential run. *)
let test_concurrent_run_matches_sequential () =
  let script =
    ota_script
    ^ "\nBAD = send?m -> rec!rptUpd -> BAD\n\
       assert SP02 [T= VMG [| {| send, rec |} |] BAD\n\
       assert SYSTEM :[deadlock free [F]]"
  in
  let verdict o =
    match o.Check.result with
    | Csp.Refine.Holds _ -> "H"
    | Csp.Refine.Fails _ -> "F"
    | Csp.Refine.Inconclusive _ -> "I"
  in
  let loaded = Elaborate.load_string script in
  let seq = Check.run loaded in
  let par = Check.run ~config:Csp.Check_config.(default |> with_workers 2) loaded in
  check_int "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same verdict in script order" (verdict a)
        (verdict b))
    seq par

(* ------------------------------------------------------------------ *)
(* Printing round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_script_roundtrip () =
  let loaded = Elaborate.load_string ota_script in
  let printed =
    Print.script
      ~assertions:(List.map fst loaded.Elaborate.assertions)
      loaded.Elaborate.defs
  in
  let reloaded = Elaborate.load_string printed in
  check_bool "assertions survive" true
    (List.length reloaded.Elaborate.assertions
     = List.length loaded.Elaborate.assertions);
  check_bool "still checks" true (Check.all_pass (Check.run reloaded))

(* A term the semantics cannot step is reported at the first assertion,
   in script order, that ran into it: sequentially, on two domains, and
   through the interruptible runner. *)
let test_check_errors_are_positioned () =
  let expect what ~line ~msg script =
    let loaded = Elaborate.load_string script in
    List.iter
      (fun (how, run) ->
        match run loaded with
        | () -> Alcotest.failf "%s (%s): no error" what how
        | exception Check.Check_error (pos, e) ->
          check_int (Printf.sprintf "%s (%s): line" what how) line
            pos.Ast.line;
          Alcotest.(check string)
            (Printf.sprintf "%s (%s): message" what how)
            msg (Check.error_message e))
      [
        "run", (fun l -> ignore (Check.run l));
        ( "two workers",
          fun l ->
            ignore
              (Check.run
                 ~config:Csp.Check_config.(default |> with_workers 2)
                 l) );
        ( "run_seq",
          fun l -> ignore (Check.run_seq ~config:Csp.Check_config.default l) );
      ]
  in
  expect "unguarded recursion" ~line:3
    ~msg:"Unguarded recursion: P [] (a!1 -> P)"
    "channel a : {0..3}\nP = P [] a!1 -> P\nassert STOP [T= P\n";
  expect "division by zero" ~line:4 ~msg:"Evaluation error: division by zero"
    "channel a : {0..3}\nN = 0\nP(x) = a!(x/N) -> STOP\n\
     assert STOP [T= P(1)\n";
  expect "the first failing assertion wins" ~line:4
    ~msg:"function Q used as a process"
    "channel a : {0..3}\nQ = Q\nP = P [] a!1 -> P\n\
     assert STOP [T= Q\nassert STOP [T= P\n"

(* Printing a random process and parsing it back yields a process with
   the same traces. *)
let print_parse_roundtrip =
  QCheck.Test.make ~count:150 ~name:"print/parse round trip preserves traces"
    Helpers.arb_proc (fun p ->
      let defs = Helpers.make_defs () in
      let printed = Print.proc_to_string p in
      let term = Parser.term printed in
      (* reuse the loaded environment only for channels *)
      let loaded =
        Elaborate.load_string
          "channel a : {0..2}\nchannel b : {0..2}\nchannel c : {0..1}\nchannel done_"
      in
      let q = Elaborate.proc_of_term loaded term in
      let t1 = Csp.Traces.of_lts ~depth:3 (Csp.Lts.compile defs p) in
      let t2 =
        Csp.Traces.of_lts ~depth:3 (Csp.Lts.compile loaded.Elaborate.defs q)
      in
      if Csp.Traces.subset t1 t2 && Csp.Traces.subset t2 t1 then true
      else
        QCheck.Test.fail_reportf "printed %s@.got different traces" printed)

(* ------------------------------------------------------------------ *)
(* Generated scripts                                                   *)
(* ------------------------------------------------------------------ *)

(* Scripts of three definitions P, Q, R of arity 0 or 1 over channel a :
   {0..2} and channel b, with calls at their arities: depth-3 terms over
   output, input and dotted prefixes, [], |~|, |||, [| {|a|} |], hiding,
   ;, if, STOP, SKIP and calls, then four assertions drawn from [T=, [F=,
   [FD= and :[deadlock free]. They need not be sensible: unguarded
   recursion, unbounded data and out-of-range values are all fair. *)
let gen_script : string QCheck.Gen.t =
  let open QCheck.Gen in
  let names = [ "P"; "Q"; "R" ] in
  list_repeat 3 (int_range 0 1) >>= fun arities ->
  let arity name = List.assoc name (List.combine names arities) in
  let expr vars =
    let lit = map string_of_int (int_range 0 2) in
    if vars = [] then lit
    else
      oneof
        [
          lit;
          oneofl vars;
          map (Printf.sprintf "((%s + 1) %% 3)") (oneofl vars);
        ]
  in
  let call vars =
    oneofl names >>= fun name ->
    if arity name = 0 then return name
    else map (Printf.sprintf "%s(%s)" name) (expr vars)
  in
  let rec term depth vars =
    let leaf = frequency [ 1, return "STOP"; 1, return "SKIP"; 2, call vars ] in
    if depth = 0 then leaf
    else
      let sub = term (depth - 1) vars in
      let binary op =
        map2 (fun l r -> Printf.sprintf "(%s %s %s)" l op r) sub sub
      in
      let bound = Printf.sprintf "v%d" depth in
      frequency
        [
          2, leaf;
          2, map2 (Printf.sprintf "a!%s -> %s") (expr vars) sub;
          1, map2 (Printf.sprintf "a.%s -> %s") (expr vars) sub;
          2,
          map (Printf.sprintf "a?%s -> %s" bound)
            (term (depth - 1) (bound :: vars));
          1, map (Printf.sprintf "b -> %s") sub;
          1, binary "[]";
          1, binary "|~|";
          1, binary "|||";
          1, binary "[| {|a|} |]";
          1, binary ";";
          1, map (Printf.sprintf "(%s \\ {|a|})") sub;
          ( 1,
            map3
              (Printf.sprintf "(if %s == 1 then %s else %s)")
              (expr vars) sub sub );
        ]
  in
  let definition name =
    if arity name = 0 then map (Printf.sprintf "%s = %s" name) (term 3 [])
    else map (Printf.sprintf "%s(x) = %s" name) (term 3 [ "x" ])
  in
  let assertion =
    call [] >>= fun left ->
    call [] >>= fun right ->
    oneofl
      [
        Printf.sprintf "assert %s [T= %s" left right;
        Printf.sprintf "assert %s [F= %s" left right;
        Printf.sprintf "assert %s [FD= %s" left right;
        Printf.sprintf "assert %s :[deadlock free]" left;
      ]
  in
  flatten_l (List.map definition names) >>= fun defs ->
  list_repeat 4 assertion >>= fun asserts ->
  return
    (String.concat "\n"
       (("channel a : {0..2}" :: "channel b" :: defs) @ asserts)
    ^ "\n")

(* Whatever the script, loading it returns a script or a positioned
   error, and checking it under [config] returns outcomes or a positioned
   [Check_error] within the config's deadline plus a second. *)
let classified ~name config =
  let deadline = Option.value config.Csp.Check_config.deadline ~default:0. in
  QCheck.Test.make ~count:100 ~name
    (QCheck.make ~print:Fun.id gen_script)
    (fun script ->
      match Elaborate.load_string script with
      | exception
          ( Parser.Parse_error _ | Lexer.Lex_error _
          | Elaborate.Elab_error (_, Some _) ) ->
        true
      | loaded ->
        let t0 = Obs.now () in
        (match Check.run ~config loaded with
         | (_ : Check.outcome list) -> ()
         | exception Check.Check_error _ -> ());
        Obs.now () -. t0 <= deadline +. 1.)

let budget =
  Csp.Check_config.(default |> with_max_states 2_000 |> with_deadline 0.1)

(* Two steps that outran every budget. In [Q [] Q] each move appears
   twice, and a composition that nests itself as it runs paired every
   copy with every copy, squaring them level by level; in the second
   script nested synchronising compositions give one term an
   exponentially long row, which the join now stops at the deadline. *)
let test_exploding_steps () =
  let run config script =
    let t0 = Obs.now () in
    let outcomes = Check.run ~config (Elaborate.load_string script) in
    Obs.now () -. t0, List.map (fun o -> o.Check.result) outcomes
  in
  let elapsed, results =
    run
      Csp.Check_config.(default |> with_max_states 2_000 |> with_deadline 5.)
      "channel a : {0..2}\n\
       Q = a?x -> ((Q [] Q) [| {|a|} |] Q)\n\
       assert STOP [T= Q\n"
  in
  check_bool "copies dropped: fails long before the deadline" true
    (elapsed < 2.
    && match results with [ Csp.Refine.Fails _ ] -> true | _ -> false);
  let elapsed, results =
    run
      Csp.Check_config.(default |> with_deadline 0.3)
      "channel a : {0..2}\n\
       P = a?x -> (Q [| {|a|} |] P)\n\
       Q = (a?x -> P) ||| P\n\
       R = a!0 -> (P [| {|a|} |] Q)\n\
       assert R [T= R\n"
  in
  check_bool "an exploding row stops at the deadline" true
    (elapsed < 1.3
    &&
    match results with
    | [ Csp.Refine.Inconclusive (_, { Csp.Refine.exhausted = Deadline; _ }) ]
      ->
      true
    | _ -> false)

let generated_scripts_classified =
  classified ~name:"generated scripts come back classified" budget

let generated_scripts_watermark =
  classified
    ~name:"generated scripts come back classified under a 1 MB watermark"
    (Csp.Check_config.with_memory_limit 1 budget)

(* ------------------------------------------------------------------ *)
(* The declaration memo                                                *)
(* ------------------------------------------------------------------ *)

(* A parse as a value: the script, or the error it raised. *)
let parsed parse src =
  match parse src with
  | script -> Ok script
  | exception Parser.Parse_error (msg, pos) -> Error ("syntax", msg, pos)
  | exception Lexer.Lex_error (msg, pos) -> Error ("lexical", msg, pos)

(* What [load_source] gives that the parse decides: its error message, or
   the loaded script's assertions and declared names with positions. *)
let loaded ?memo src =
  Result.map
    (fun (l : Elaborate.t) -> (l.Elaborate.assertions, l.Elaborate.positions))
    (Elaborate.load_source ?memo ~name:"s.csp" src)

(* [src] through [memo] parses and loads as it does without one. *)
let same_through memo src =
  parsed (Elaborate.parse ~memo) src = parsed Parser.script src
  && loaded ~memo src = loaded src

(* Declarations beyond [gen_script]'s: types; bodies that go on at column
   1 with [else], [and], [or] or [[]]; and comments, two of them block
   comments holding a column-1 definition. *)
let extra_decls =
  [
    "datatype D = x | y.{0..1}";
    "nametype N = {1..4}";
    "channel c, d : D.N";
    "f(v) = if v == 1 then 0\nelse 1";
    "g(v) = v > 0\nand v < 2";
    "h(v) = v == 0\nor v == 2";
    "T = a!0 -> STOP\n[] b -> T";
    "-- P = STOP";
    "{- a note\nP = STOP\n-}";
    "U = a!1 -> {- inline -} STOP";
    "{- nested {- comment -}\nW = STOP -}";
  ]

(* Ways to break a script: a declaration cut off at the end of input, an
   unterminated comment, a stray bracket, an out-of-range literal, and an
   elaboration error. *)
let breakages =
  [
    "P2 = a ->";
    "{- unterminated";
    ")";
    "X = 99999999999999999999";
    "Y = nowhere!1 -> STOP";
  ]

(* A [gen_script] script with some of [extra_decls], shuffled and laid
   out adversarially: line breaks in place of spaces (none, indented ones
   only, or a mix that leaves column-1 tokens behind), sometimes a
   breakage at a random line, CRLF line endings, no trailing newline, or
   no text at all. *)
let gen_layout : string QCheck.Gen.t =
  let open QCheck.Gen in
  gen_script >>= fun script ->
  bool >>= fun with_extras ->
  flatten_l
    (List.map
       (fun d -> map (fun keep -> if keep && with_extras then [ d ] else []) bool)
       extra_decls)
  >>= fun extras ->
  let pieces =
    List.filter (( <> ) "") (String.split_on_char '\n' script)
    @ List.concat extras
  in
  shuffle_l pieces >>= fun pieces ->
  let text = String.concat "\n" pieces in
  let space =
    oneofl
      [
        return " ";
        frequency [ 3, return " "; 1, return "\n  " ];
        frequency [ 8, return " "; 1, return "\n"; 1, return "\n  " ];
      ]
  in
  space >>= fun space ->
  flatten_l (List.init (String.length text) (fun _ -> space)) >>= fun spaces ->
  let spaces = Array.of_list spaces in
  let b = Buffer.create (String.length text) in
  String.iteri
    (fun i c ->
      if c = ' ' then Buffer.add_string b spaces.(i) else Buffer.add_char b c)
    text;
  let lines = String.split_on_char '\n' (Buffer.contents b) in
  frequency [ 4, return None; 1, map Option.some (oneofl breakages) ]
  >>= fun broken ->
  int_bound (List.length lines) >>= fun at ->
  let lines =
    match broken with
    | None -> lines
    | Some bad ->
      List.concat
        (List.mapi (fun i l -> if i = at then [ bad; l ] else [ l ]) lines)
  in
  bool >>= fun crlf ->
  bool >>= fun trailing ->
  frequency [ 19, return false; 1, return true ] >>= fun empty ->
  let eol = if crlf then "\r\n" else "\n" in
  let text = String.concat eol lines ^ if trailing then eol else "" in
  return (if empty then "" else text)

(* One memo across every generated script, so cases also hit chunks the
   case before left, or meet a memo a failed pass left as it was. *)
let shared_memo = Elaborate.Memo.create ()

let memo_parses_as_whole =
  QCheck.Test.make ~count:300
    ~name:"memoised parses and loads match whole-script ones"
    (QCheck.make ~print:String.escaped gen_layout) (fun src ->
      let cold = Elaborate.Memo.create () in
      same_through cold src
      && same_through cold src
      && same_through shared_memo src)

(* The layouts the chunker must not be fooled by, one at a time. *)
let test_memo_layouts () =
  let memo = Elaborate.Memo.create () in
  List.iter
    (fun src ->
      check_bool (String.escaped src) true
        (same_through memo src && same_through memo src))
    [
      "";
      "\n\n";
      "channel a : {0..2}\nP = a!0 -> P\nassert P [T= P";
      "channel a : {0..2}\r\nP = a!0 -> P\r\nassert P [T= P\r\n";
      "channel a : {0..2}\nf(v) = if v == 1 then 0\nelse 1\nP = a!f(1) -> P\n";
      "channel a : {0..2}\ng(v) = v > 0\nand v < 2\n";
      "channel a, b\nP = a -> P\n[] b -> P\n";
      "channel a\n-- Q = STOP\nP = a -> P\n";
      "channel a\n{- note\nQ = STOP\n-}\nP = a -> P\n";
      "channel a\n{- unterminated\nQ = STOP\n";
      "channel a\nP = a ->\nQ = STOP\n";
      "channel a\nP = a -> STOP\nQ = nowhere -> STOP\n";
      "  P = STOP\nQ = P\n";
    ]

(* Every example and fixture script loads through a memo as it does
   without one, cold, warm, and warm after an edit that moves every
   declaration two lines down: the same assertions and positions, the
   same declarations, and the same cache key for every assertion's
   terms; a script that does not load gives the same message. *)
let test_memo_examples_and_fixtures () =
  let dir_of name =
    List.find Sys.file_exists [ name; Filename.concat ".." name ]
  in
  let scripts dir =
    let dir = dir_of dir in
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".csp")
    |> List.map (fun f ->
        (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  let files = scripts "examples" @ scripts (Filename.concat "test" "fixtures") in
  check_bool "found the scripts" true (List.length files >= 10);
  let max_states = Csp.Check_config.default.max_states in
  let render ?memo ~name src =
    match Elaborate.load_source ?memo ~name src with
    | Error msg -> "error " ^ msg
    | Ok l ->
      let pos p = Format.asprintf "%a" Ast.pp_pos p in
      let key p =
        match Elaborate.proc_of_term l p with
        | p ->
          Csp.Cache.spec_key ~max_states l.Elaborate.defs p
          ^ "/"
          ^ Csp.Cache.impl_key ~max_states l.Elaborate.defs p
        | exception Elaborate.Elab_error (msg, _) -> "unkeyable " ^ msg
      in
      let terms = function
        | Ast.A_refines (s, _, i) -> [ s; i ]
        | Ast.A_deadlock_free p | Ast.A_divergence_free p
        | Ast.A_deterministic p ->
          [ p ]
      in
      String.concat "\n"
        ((Print.script l.Elaborate.defs
         :: List.map (fun (n, p) -> n ^ " " ^ pos p) l.Elaborate.positions)
        @ List.map
            (fun (a, p) ->
              Format.asprintf "%a %s %s" Print.pp_assertion a (pos p)
                (String.concat " " (List.map key (terms a))))
            l.Elaborate.assertions)
  in
  let memo = Elaborate.Memo.create () in
  List.iter
    (fun (name, src) ->
      let edited = "-- edited\n\n" ^ src in
      let expect = render ~name src and expect_edited = render ~name edited in
      Alcotest.(check string) (name ^ " cold") expect (render ~memo ~name src);
      Alcotest.(check string) (name ^ " warm") expect (render ~memo ~name src);
      Alcotest.(check string)
        (name ^ " warm after an edit")
        expect_edited
        (render ~memo ~name edited))
    files

(* A memo holds what a fresh memo holds after the last script it kept
   alone: a new script replaces the one before, and a script too long to
   keep, or one with a piece that does not parse, leaves the memo as it
   was. Each of them still loads as the whole parse does. *)
let test_memo_bound () =
  let script ~k ~n =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf
             "channel q%d_%d : {0..1}\nP%d_%d = q%d_%d!0 -> P%d_%d\n\
              assert P%d_%d [T= P%d_%d\n"
             k i k i k i k i k i k i))
  in
  let a = script ~k:0 ~n:60
  and b = script ~k:1 ~n:40
  and long = script ~k:2 ~n:8000
  and broken = script ~k:3 ~n:20 ^ "P = a ->\n" in
  check_bool "too long to keep" true (String.length long > 1 lsl 19);
  let size memo = Obj.reachable_words (Obj.repr memo) in
  let after kept =
    let fresh = Elaborate.Memo.create () in
    ignore (Elaborate.parse ~memo:fresh kept);
    size fresh
  in
  let memo = Elaborate.Memo.create () in
  List.iter
    (fun (name, src, kept) ->
      check_bool (name ^ " loads as whole") true (same_through memo src);
      Alcotest.(check int) (name ^ ": the memo's size") (after kept) (size memo))
    [
      "a", a, a;
      "b", b, b;
      "a long script", long, b;
      "a broken script", broken, b;
      "a again", a, a;
    ]

let suite =
  ( "cspm",
    [
      Alcotest.test_case "lexer symbols" `Quick test_lexer_symbols;
      Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "int literal overflow" `Quick test_lexer_int_overflow;
      Alcotest.test_case "budget slice arithmetic" `Quick test_slice_arithmetic;
      Alcotest.test_case "rolling timeout budget" `Quick test_rolling_budget;
      Alcotest.test_case "concurrent run matches sequential" `Quick
        test_concurrent_run_matches_sequential;
      Alcotest.test_case "operator precedence" `Quick test_parse_precedence;
      Alcotest.test_case "prefix fields" `Quick test_parse_prefix_fields;
      Alcotest.test_case "expression backtracking" `Quick test_parse_backtracking;
      Alcotest.test_case "declarations" `Quick test_parse_declarations;
      Alcotest.test_case "replicated operators" `Quick test_parse_replicated;
      Alcotest.test_case "parse errors carry positions" `Quick
        test_parse_errors_have_positions;
      Alcotest.test_case "process/function classification" `Quick
        test_elaborate_classification;
      Alcotest.test_case "elaboration errors" `Quick test_elaborate_errors;
      Alcotest.test_case "assertion checking" `Quick test_check_assertions;
      Alcotest.test_case "errors while checking carry positions" `Quick
        test_check_errors_are_positioned;
      Alcotest.test_case "counterexamples through CSPm" `Quick
        test_counterexample_through_cspm;
      Alcotest.test_case "script round trip" `Quick test_script_roundtrip;
      QCheck_alcotest.to_alcotest print_parse_roundtrip;
      QCheck_alcotest.to_alcotest generated_scripts_classified;
      Alcotest.test_case "exploding steps stop" `Quick test_exploding_steps;
      QCheck_alcotest.to_alcotest generated_scripts_watermark;
      QCheck_alcotest.to_alcotest memo_parses_as_whole;
      Alcotest.test_case "memo layouts" `Quick test_memo_layouts;
      Alcotest.test_case "memo loads examples and fixtures as whole" `Quick
        test_memo_examples_and_fixtures;
      Alcotest.test_case "memo keeps only the last script" `Quick
        test_memo_bound;
    ] )
