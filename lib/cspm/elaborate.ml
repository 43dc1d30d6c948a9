exception Elab_error of string * Ast.pos option

type t = {
  defs : Csp.Defs.t;
  assertions : (Ast.assertion * Ast.pos) list;
  positions : (string * Ast.pos) list;
}

let err ?pos fmt =
  Format.kasprintf (fun s -> raise (Elab_error (s, pos))) fmt

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec ty_of_ty_expr ?pos (te : Ast.ty_expr) : Csp.Ty.t =
  match te with
  | Ast.TE_bool -> Csp.Ty.Bool
  | Ast.TE_name "Int" ->
    err ?pos "unbounded Int is not supported; use a range {lo..hi}"
  | Ast.TE_name n -> Csp.Ty.Named n
  | Ast.TE_range (lo, hi) -> Csp.Ty.Int_range (lo, hi)
  | Ast.TE_tuple tes -> Csp.Ty.Tuple (List.map (ty_of_ty_expr ?pos) tes)

(* ------------------------------------------------------------------ *)
(* Definition classification                                           *)
(* ------------------------------------------------------------------ *)

type klass =
  | Proc_def
  | Fun_def

let rec contains_proc_construct (term : Ast.term) =
  match term with
  | Ast.T_stop | Ast.T_skip | Ast.T_prefix _ | Ast.T_extchoice _
  | Ast.T_intchoice _ | Ast.T_seq _ | Ast.T_par _ | Ast.T_apar _
  | Ast.T_interleave _ | Ast.T_interrupt _ | Ast.T_slide _ | Ast.T_hide _
  | Ast.T_rename _ | Ast.T_guard _ | Ast.T_repl _ ->
    true
  | Ast.T_app (("RUN" | "CHAOS"), _) -> true
  | Ast.T_if (_, a, b) -> contains_proc_construct a || contains_proc_construct b
  | Ast.T_num _ | Ast.T_bool _ | Ast.T_id _ | Ast.T_dot _ | Ast.T_app _
  | Ast.T_tuple _ | Ast.T_set _ | Ast.T_range _ | Ast.T_chanset _
  | Ast.T_neg _ | Ast.T_not _ | Ast.T_bin _ ->
    false

(* References at "head position" of a body: the places where a definition's
   class propagates from what it refers to (plain aliases and conditionals
   over aliases). *)
let rec head_refs (term : Ast.term) =
  match term with
  | Ast.T_id n -> [ n ]
  | Ast.T_app (n, _) -> [ n ]
  | Ast.T_if (_, a, b) -> head_refs a @ head_refs b
  | _ -> []

let classify (defs_list : (string * string list * Ast.term * Ast.pos) list) =
  let table = Hashtbl.create 16 in
  (* Seed with syntactically obvious processes. *)
  List.iter
    (fun (n, _, body, _) ->
      if contains_proc_construct body then Hashtbl.replace table n Proc_def)
    defs_list;
  (* Propagate through head references until stable. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n, _, body, _) ->
        if not (Hashtbl.mem table n) then
          let refs = head_refs body in
          if
            List.exists
              (fun r -> Hashtbl.find_opt table r = Some Proc_def)
              refs
          then begin
            Hashtbl.replace table n Proc_def;
            changed := true
          end)
      defs_list
  done;
  fun n -> Option.value ~default:Fun_def (Hashtbl.find_opt table n)

(* ------------------------------------------------------------------ *)
(* Term elaboration                                                    *)
(* ------------------------------------------------------------------ *)

(* Flatten a dotted chain [((a.b).c)] to its head identifier and argument
   terms, if it has that shape. *)
let rec flatten_dots (term : Ast.term) =
  match term with
  | Ast.T_id n -> Some (n, [])
  | Ast.T_dot (l, r) ->
    (match flatten_dots l with
     | Some (n, args) -> Some (n, args @ [ r ])
     | None -> None)
  | _ -> None

type ctx = {
  defs : Csp.Defs.t;
  klass_of : string -> klass option;  (* None: not a definition *)
  pos : Ast.pos option;
}

let binop_of : Ast.binop -> Csp.Expr.binop = function
  | Ast.B_add -> Csp.Expr.Add
  | Ast.B_sub -> Csp.Expr.Sub
  | Ast.B_mul -> Csp.Expr.Mul
  | Ast.B_div -> Csp.Expr.Div
  | Ast.B_mod -> Csp.Expr.Mod
  | Ast.B_eq -> Csp.Expr.Eq
  | Ast.B_neq -> Csp.Expr.Neq
  | Ast.B_lt -> Csp.Expr.Lt
  | Ast.B_le -> Csp.Expr.Le
  | Ast.B_gt -> Csp.Expr.Gt
  | Ast.B_ge -> Csp.Expr.Ge
  | Ast.B_and -> Csp.Expr.And
  | Ast.B_or -> Csp.Expr.Or

let rec elab_expr ctx scope (term : Ast.term) : Csp.Expr.t =
  match term with
  | Ast.T_num n -> Csp.Expr.Lit (Csp.Value.Int n)
  | Ast.T_bool b -> Csp.Expr.Lit (Csp.Value.Bool b)
  | Ast.T_id x ->
    if List.mem x scope then Csp.Expr.Var x
    else if Option.is_some (Csp.Defs.find_ctor ctx.defs x) then
      Csp.Expr.Lit (Csp.Value.sym x)
    else begin
      match ctx.klass_of x with
      | Some Fun_def -> Csp.Expr.App (x, [])
      | Some Proc_def -> err ?pos:ctx.pos "process %s used in expression" x
      | None ->
        (match Csp.Defs.ty_lookup ctx.defs x with
         | Some _ -> Csp.Expr.Ty_dom (Csp.Ty.Named x)
         | None -> err ?pos:ctx.pos "unknown identifier %s" x)
    end
  | Ast.T_dot _ ->
    (match flatten_dots term with
     | Some (head, args) when Option.is_some (Csp.Defs.find_ctor ctx.defs head)
       ->
       Csp.Expr.Ctor (head, List.map (elab_expr ctx scope) args)
     | Some (head, _) -> err ?pos:ctx.pos "%s is not a datatype constructor" head
     | None -> err ?pos:ctx.pos "unsupported dotted expression")
  | Ast.T_app ("member", [ e; s ]) ->
    Csp.Expr.Mem (elab_expr ctx scope e, elab_set ctx scope s)
  | Ast.T_app (f, args) ->
    (match ctx.klass_of f with
     | Some Fun_def -> Csp.Expr.App (f, List.map (elab_expr ctx scope) args)
     | Some Proc_def -> err ?pos:ctx.pos "process %s used in expression" f
     | None -> err ?pos:ctx.pos "unknown function %s" f)
  | Ast.T_tuple items -> Csp.Expr.Tuple (List.map (elab_expr ctx scope) items)
  | Ast.T_neg e -> Csp.Expr.Neg (elab_expr ctx scope e)
  | Ast.T_not e -> Csp.Expr.Not (elab_expr ctx scope e)
  | Ast.T_bin (op, a, b) ->
    Csp.Expr.Bin (binop_of op, elab_expr ctx scope a, elab_expr ctx scope b)
  | Ast.T_if (c, a, b) ->
    Csp.Expr.If
      (elab_expr ctx scope c, elab_expr ctx scope a, elab_expr ctx scope b)
  | Ast.T_set _ | Ast.T_range _ -> elab_set ctx scope term
  | Ast.T_chanset _ ->
    err ?pos:ctx.pos "event set used in expression position"
  | Ast.T_stop | Ast.T_skip | Ast.T_prefix _ | Ast.T_extchoice _
  | Ast.T_intchoice _ | Ast.T_seq _ | Ast.T_par _ | Ast.T_apar _
  | Ast.T_interleave _ | Ast.T_interrupt _ | Ast.T_slide _ | Ast.T_hide _
  | Ast.T_rename _ | Ast.T_guard _ | Ast.T_repl _ ->
    err ?pos:ctx.pos "process construct used in expression position"

(* Sets in scalar-set position: replication ranges, input restrictions,
   membership right-hand sides. *)
and elab_set ctx scope (term : Ast.term) : Csp.Expr.t =
  match term with
  | Ast.T_set items -> Csp.Expr.Set (List.map (elab_expr ctx scope) items)
  | Ast.T_range (lo, hi) ->
    Csp.Expr.Range (elab_expr ctx scope lo, elab_expr ctx scope hi)
  | Ast.T_id n when Option.is_some (Csp.Defs.ty_lookup ctx.defs n) ->
    Csp.Expr.Ty_dom (Csp.Ty.Named n)
  | Ast.T_id "Bool" -> Csp.Expr.Ty_dom Csp.Ty.Bool
  | Ast.T_app ("union", [ a; b ]) ->
    (* Value-set union is not first-class in Expr; expand literally when
       both sides are literal sets. *)
    (match elab_set ctx scope a, elab_set ctx scope b with
     | Csp.Expr.Set xs, Csp.Expr.Set ys -> Csp.Expr.Set (xs @ ys)
     | _ -> err ?pos:ctx.pos "union(...) of non-literal value sets")
  | _ -> elab_expr ctx scope term

let elab_event ctx scope (term : Ast.term) : Csp.Event.t =
  let head, args =
    match flatten_dots term with
    | Some (head, args) -> head, args
    | None -> err ?pos:ctx.pos "expected an event"
  in
  match Csp.Defs.channel_type ctx.defs head with
  | None -> err ?pos:ctx.pos "unknown channel %s in event" head
  | Some _ ->
    let values =
      List.map
        (fun arg ->
          let e = elab_expr ctx scope arg in
          try
            Csp.Expr.eval
              ~tys:(Csp.Defs.ty_lookup ctx.defs)
              (Csp.Defs.fenv ctx.defs) Csp.Expr.empty_env e
          with Csp.Expr.Eval_error msg ->
            err ?pos:ctx.pos "event argument: %s" msg)
        args
    in
    Csp.Event.event head values

let rec elab_eventset ctx scope (term : Ast.term) : Csp.Eventset.t =
  match term with
  | Ast.T_chanset items ->
    let production item =
      match flatten_dots item with
      | Some (c, args) ->
        if Option.is_none (Csp.Defs.channel_type ctx.defs c) then
          err ?pos:ctx.pos "unknown channel %s in {| |}" c;
        let values =
          List.map
            (fun a ->
              let e = elab_expr ctx scope a in
              try
                Csp.Expr.eval
                  ~tys:(Csp.Defs.ty_lookup ctx.defs)
                  (Csp.Defs.fenv ctx.defs) Csp.Expr.empty_env e
              with Csp.Expr.Eval_error msg ->
                err ?pos:ctx.pos "production argument: %s" msg)
            args
        in
        Csp.Eventset.prefixed c values
      | None -> err ?pos:ctx.pos "malformed channel production in {| |}"
    in
    Csp.Eventset.union_all (List.map production items)
  | Ast.T_set [] -> Csp.Eventset.empty
  | Ast.T_set items ->
    Csp.Eventset.events (List.map (elab_event ctx scope) items)
  | Ast.T_app ("union", [ a; b ]) ->
    Csp.Eventset.union (elab_eventset ctx scope a) (elab_eventset ctx scope b)
  | Ast.T_app ("diff", [ a; b ]) ->
    Csp.Eventset.diff (elab_eventset ctx scope a) (elab_eventset ctx scope b)
  | _ -> err ?pos:ctx.pos "expected an event set ({| c |}, {c.v}, union, diff)"

let rec elab_proc ctx scope (term : Ast.term) : Csp.Proc.t =
  match term with
  | Ast.T_stop -> Csp.Proc.stop
  | Ast.T_skip -> Csp.Proc.skip
  | Ast.T_prefix ({ Ast.chan; fields }, cont) ->
    if Option.is_none (Csp.Defs.channel_type ctx.defs chan) then
      err ?pos:ctx.pos "prefix on undeclared channel %s" chan;
    let scope', rev_items =
      List.fold_left
        (fun (scope, items) field ->
          match field with
          | Ast.F_out e | Ast.F_dot e ->
            scope, Csp.Proc.Out (elab_expr ctx scope e) :: items
          | Ast.F_in (x, restr) ->
            let restr = Option.map (elab_set ctx scope) restr in
            x :: scope, Csp.Proc.In (x, restr) :: items)
        (scope, []) fields
    in
    Csp.Proc.prefix_items (chan, List.rev rev_items, elab_proc ctx scope' cont)
  | Ast.T_extchoice (a, b) ->
    Csp.Proc.ext (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_intchoice (a, b) ->
    Csp.Proc.intc (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_seq (a, b) ->
    Csp.Proc.seq (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_par (a, set, b) ->
    Csp.Proc.par
      (elab_proc ctx scope a, elab_eventset ctx scope set, elab_proc ctx scope b)
  | Ast.T_apar (a, sa, sb, b) ->
    Csp.Proc.apar
      ( elab_proc ctx scope a,
        elab_eventset ctx scope sa,
        elab_eventset ctx scope sb,
        elab_proc ctx scope b )
  | Ast.T_interleave (a, b) ->
    Csp.Proc.inter (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_interrupt (a, b) ->
    Csp.Proc.interrupt (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_slide (a, b) ->
    Csp.Proc.timeout (elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_hide (p, set) ->
    Csp.Proc.hide (elab_proc ctx scope p, elab_eventset ctx scope set)
  | Ast.T_rename (p, mapping) ->
    List.iter
      (fun (a, b) ->
        if Option.is_none (Csp.Defs.channel_type ctx.defs a) then
          err ?pos:ctx.pos "renaming of undeclared channel %s" a;
        if Option.is_none (Csp.Defs.channel_type ctx.defs b) then
          err ?pos:ctx.pos "renaming to undeclared channel %s" b)
      mapping;
    Csp.Proc.rename (elab_proc ctx scope p, mapping)
  | Ast.T_guard (b, p) ->
    Csp.Proc.guard (elab_expr ctx scope b, elab_proc ctx scope p)
  | Ast.T_if (c, a, b) ->
    Csp.Proc.ite (elab_expr ctx scope c, elab_proc ctx scope a, elab_proc ctx scope b)
  | Ast.T_repl (kind, x, set, body) ->
    let set = elab_set ctx scope set in
    let body = elab_proc ctx (x :: scope) body in
    (match kind with
     | Ast.R_ext -> Csp.Proc.ext_over (x, set, body)
     | Ast.R_int -> Csp.Proc.int_over (x, set, body)
     | Ast.R_inter -> Csp.Proc.inter_over (x, set, body))
  | Ast.T_id n ->
    (match ctx.klass_of n with
     | Some Proc_def -> Csp.Proc.call (n, [])
     | Some Fun_def -> err ?pos:ctx.pos "function %s used as a process" n
     | None -> err ?pos:ctx.pos "unknown process %s" n)
  | Ast.T_app ("RUN", [ set ]) -> Csp.Proc.run (elab_eventset ctx scope set)
  | Ast.T_app ("CHAOS", [ set ]) -> Csp.Proc.chaos (elab_eventset ctx scope set)
  | Ast.T_app (n, args) ->
    (match ctx.klass_of n with
     | Some Proc_def ->
       Csp.Proc.call (n, List.map (elab_expr ctx scope) args)
     | Some Fun_def -> err ?pos:ctx.pos "function %s used as a process" n
     | None -> err ?pos:ctx.pos "unknown process %s" n)
  | Ast.T_num _ | Ast.T_bool _ | Ast.T_dot _ | Ast.T_tuple _ | Ast.T_set _
  | Ast.T_range _ | Ast.T_chanset _ | Ast.T_neg _ | Ast.T_not _ | Ast.T_bin _
    ->
    err ?pos:ctx.pos "expression used in process position"

(* ------------------------------------------------------------------ *)
(* Script loading                                                      *)
(* ------------------------------------------------------------------ *)

let load (script : Ast.script) : t =
  let defs = Csp.Defs.create () in
  let def_items = ref [] in
  let assertions = ref [] in
  let positions = ref [] in
  let note name pos = positions := (name, pos) :: !positions in
  (* First pass: declarations. *)
  List.iter
    (fun (decl, pos) ->
      match decl with
      | Ast.D_channel (names, ty_exprs) ->
        let tys = List.map (ty_of_ty_expr ~pos) ty_exprs in
        List.iter
          (fun c ->
            note c pos;
            try Csp.Defs.declare_channel defs c tys
            with Csp.Defs.Duplicate d -> err ~pos "duplicate %s" d)
          names
      | Ast.D_datatype (name, ctors) ->
        let ctors =
          List.map (fun (c, tys) -> c, List.map (ty_of_ty_expr ~pos) tys) ctors
        in
        note name pos;
        (try Csp.Defs.declare_datatype defs name ctors
         with Csp.Defs.Duplicate d -> err ~pos "duplicate %s" d)
      | Ast.D_nametype (name, te) ->
        note name pos;
        (try Csp.Defs.declare_nametype defs name (ty_of_ty_expr ~pos te)
         with Csp.Defs.Duplicate d -> err ~pos "duplicate %s" d)
      | Ast.D_def (name, params, body) ->
        note name pos;
        def_items := (name, params, body, pos) :: !def_items
      | Ast.D_assert a -> assertions := (a, pos) :: !assertions)
    script.Ast.decls;
  let def_items = List.rev !def_items in
  let klass = classify def_items in
  let def_names = Hashtbl.create (List.length def_items) in
  List.iter (fun (n, _, _, _) -> Hashtbl.replace def_names n ()) def_items;
  let klass_of n =
    if Hashtbl.mem def_names n then Some (klass n) else None
  in
  (* Second pass: register bodies. Functions first so process bodies can
     reference them during const-folding later; order among functions or
     among processes does not matter because resolution is by name at
     evaluation time. *)
  List.iter
    (fun (name, params, body, pos) ->
      let ctx = { defs; klass_of; pos = Some pos } in
      match klass name with
      | Fun_def ->
        let e = elab_expr ctx params body in
        (try Csp.Defs.define_fun defs name params e
         with Csp.Defs.Duplicate d -> err ~pos "duplicate %s" d)
      | Proc_def ->
        let p = elab_proc ctx params body in
        (try Csp.Defs.define_proc defs name params p
         with Csp.Defs.Duplicate d -> err ~pos "duplicate %s" d))
    def_items;
  { defs; assertions = List.rev !assertions; positions = List.rev !positions }

let load_string ?(obs = Obs.silent) src =
  let ast = Obs.span obs "cspm.parse" (fun () -> Parser.script src) in
  Obs.span obs "cspm.elaborate" (fun () -> load ast)

let load_source ?obs ?name src =
  let at pos =
    match name with
    | Some name -> Format.asprintf "%s:%a" name Ast.pp_pos pos
    | None -> Format.asprintf "%a" Ast.pp_pos pos
  in
  match load_string ?obs src with
  | loaded -> Ok loaded
  | exception Parser.Parse_error (msg, pos) ->
    Error (Printf.sprintf "%s: syntax error: %s" (at pos) msg)
  | exception Lexer.Lex_error (msg, pos) ->
    Error (Printf.sprintf "%s: lexical error: %s" (at pos) msg)
  | exception Elab_error (msg, Some pos) ->
    Error (Printf.sprintf "%s: %s" (at pos) msg)
  | exception Elab_error (msg, None) -> (
    match name with
    | Some name -> Error (Printf.sprintf "%s: %s" name msg)
    | None -> Error msg)

let ctx_of (loaded : t) =
  let defs = loaded.defs in
  let klass_of n =
    if Option.is_some (Csp.Defs.proc defs n) then Some Proc_def
    else if
      (* 0-ary and n-ary functions both present themselves through fenv *)
      Option.is_some (Csp.Defs.fenv defs n)
    then Some Fun_def
    else None
  in
  { defs; klass_of; pos = None }

let proc_of_term loaded term = elab_proc (ctx_of loaded) [] term
let expr_of_term loaded term = elab_expr (ctx_of loaded) [] term
let eventset_of_term loaded term = elab_eventset (ctx_of loaded) [] term
