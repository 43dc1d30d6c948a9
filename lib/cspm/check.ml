type outcome = {
  assertion : Ast.assertion;
  pos : Ast.pos option;
  result : Csp.Refine.result;
}

exception Check_error of Ast.pos * exn

(* The one rendering of a [Check_error], for the CLI and, through the
   printer below, for the daemon's failure reasons, which name the
   exception that failed the job. *)
let error_message = function
  | Csp.Semantics.Unguarded term -> "Unguarded recursion: " ^ term
  | Csp.Semantics.Ill_formed msg -> "Ill-formed process: " ^ msg
  | Csp.Expr.Eval_error msg -> "Evaluation error: " ^ msg
  | Elaborate.Elab_error (msg, _) -> msg
  | e -> Printexc.to_string e

let () =
  Printexc.register_printer (function
    | Check_error (pos, e) ->
      Some (Format.asprintf "%a: %s" Ast.pp_pos pos (error_message e))
    | _ -> None)

(* A script can load and still hold a term the semantics cannot step: an
   unguarded recursion, a call with the wrong arity, an expression that
   divides by zero, a name elaboration only resolves when the
   assertion's terms are built. These surface while an assertion is
   checked, so they are reported at it. *)
let at pos f =
  try f () with
  | ( Csp.Semantics.Unguarded _ | Csp.Semantics.Ill_formed _
    | Csp.Expr.Eval_error _ | Elaborate.Elab_error _ ) as e ->
    raise (Check_error (pos, e))

(* An assertion with its process terms elaborated up front. Elaboration
   mutates nothing but builds terms through the hash-consing constructors;
   doing it eagerly on the calling domain keeps the concurrent assertions
   below confined to the (domain-safe) refinement engine. *)
type prepared =
  | P_refines of Csp.Proc.t * Csp.Refine.model * Csp.Proc.t
  | P_deadlock_free of Csp.Proc.t
  | P_divergence_free of Csp.Proc.t
  | P_deterministic of Csp.Proc.t

let prepare (loaded : Elaborate.t) (a : Ast.assertion) =
  match a with
  | Ast.A_refines (spec_t, model, impl_t) ->
    let spec = Elaborate.proc_of_term loaded spec_t in
    let impl = Elaborate.proc_of_term loaded impl_t in
    let model =
      match model with
      | Ast.M_traces -> Csp.Refine.Traces
      | Ast.M_failures -> Csp.Refine.Failures
      | Ast.M_failures_divergences -> Csp.Refine.Failures_divergences
    in
    P_refines (spec, model, impl)
  | Ast.A_deadlock_free t -> P_deadlock_free (Elaborate.proc_of_term loaded t)
  | Ast.A_divergence_free t ->
    P_divergence_free (Elaborate.proc_of_term loaded t)
  | Ast.A_deterministic t -> P_deterministic (Elaborate.proc_of_term loaded t)

let run_prepared ?(config = Csp.Check_config.default) ?resume defs prepared =
  match resume, prepared with
  | Some cp, P_refines (spec, model, impl) ->
    Csp.Refine.resume ~config ~model ~checkpoint:cp defs ~spec ~impl
  | Some cp, P_deterministic p ->
    Csp.Refine.resume_deterministic ~config ~checkpoint:cp defs p
  | _, P_refines (spec, model, impl) ->
    Csp.Refine.check ~config ~model defs ~spec ~impl
  (* The graph checks never emit a checkpoint (a budgeted compile just
     re-runs), so a stale [resume] for them falls through to a fresh run. *)
  | _, P_deadlock_free p -> Csp.Refine.deadlock_free ~config defs p
  | _, P_divergence_free p -> Csp.Refine.divergence_free ~config defs p
  | _, P_deterministic p -> Csp.Refine.deterministic ~config defs p

(* Elaborating every assertion up front must not report a later
   assertion's error before an earlier one has run: the error waits for
   its turn. *)
let prepare_at loaded (a, pos) =
  match at pos (fun () -> prepare loaded a) with
  | p -> Ok p
  | exception (Check_error _ as e) -> Error e

let run_at ~config ?resume defs pos = function
  | Ok p -> at pos (fun () -> run_prepared ~config ?resume defs p)
  | Error e -> raise e

(* Whether two of the assertions from [from] on compile one system,
   hidden or not: [Refine] compiles what an implementation's root hiding
   hides, so refinements, deadlock- and divergence-freedom checks that
   name one [SYSTEM] under different hide sets (or none) need only one
   compile of it. *)
let share_a_body ?(from = 0) prepared =
  let seen = Hashtbl.create 8 and shared = ref false in
  for i = from to Array.length prepared - 1 do
    match prepared.(i) with
    | Ok (P_refines (_, _, p) | P_deadlock_free p | P_divergence_free p) ->
      let body = Csp.Proc.id (fst (Csp.Reduce.split_hiding p)) in
      if Hashtbl.mem seen body then shared := true
      else Hashtbl.add seen body ()
    | Ok (P_deterministic _) | Error _ -> ()
  done;
  !shared

(* Assertions that share a body share its compile through a cache: the
   caller's, or, when there is none, one of the run's own that lives as
   long as the run, counts nothing into [config.obs] and keeps no more
   states than one check may compile. Assertions that share nothing run
   without one: keying them would only cost time, and every graph a run
   cache holds stays resident while the assertions after it compile
   theirs. *)
let with_run_cache ?from prepared (config : Csp.Check_config.t) =
  match config.Csp.Check_config.cache with
  | None when share_a_body ?from prepared ->
    Csp.Check_config.with_cache
      (Csp.Cache.create
         ~max_resident_states:config.Csp.Check_config.max_states ())
      config
  | Some _ | None -> config

(* The per-assertion share of the remaining wall-clock budget. Recomputed
   before each assertion, so budget a fast assertion leaves unused rolls
   forward to the ones after it instead of being thrown away. An already
   overspent budget clamps to a zero slice, never a negative one. *)
let slice ~remaining_wall ~remaining =
  if remaining <= 0 then remaining_wall
  else max 0. remaining_wall /. float_of_int remaining

(* The config assertion [i] of [n] runs under, in a sequence that started
   at [t0]: under a total deadline, its slice of what is left. *)
let sliced ~(config : Csp.Check_config.t) ~t0 ~n i =
  match config.Csp.Check_config.deadline with
  | Some total ->
    let remaining_wall = total -. (Obs.now () -. t0) in
    Csp.Check_config.with_deadline
      (slice ~remaining_wall ~remaining:(n - i))
      config
  | None -> config

let all_pass outcomes =
  List.for_all (fun o -> Csp.Refine.holds o.result) outcomes

(* The machine-readable face of [pp_outcomes]: the documented stable
   schema behind [cspm_check --format json]. Verdict names, field names,
   and the counts in "summary" are part of the contract; new fields may
   be added but existing ones keep their meaning. *)
let json_of_outcome i o =
  let open Obs.Json in
  let num n = Num (float_of_int n) in
  let labels ls = List (List.map (fun l -> Str (Csp.Event.label_to_string l)) ls) in
  let stats_json (s : Csp.Refine.stats) =
    Obj
      [
        "impl_states", num s.Csp.Refine.impl_states;
        "spec_nodes", num s.Csp.Refine.spec_nodes;
        "pairs", num s.Csp.Refine.pairs;
        "wall_s", Num s.Csp.Refine.wall_s;
        "states_per_sec", Num s.Csp.Refine.states_per_sec;
        "peak_frontier", num s.Csp.Refine.peak_frontier;
        (* the search is single-domain; both keys stay in the schema *)
        "workers", num 1;
        "par_speedup", Num 1.;
        ( "reductions",
          List
            (List.map
               (fun (pass, before, after) ->
                 Obj
                   [
                     "pass", Str pass;
                     "states_before", num before;
                     "states_after", num after;
                   ])
               s.Csp.Refine.reductions) );
      ]
  in
  let base =
    [
      "index", num i;
      "assertion", Str (Format.asprintf "%a" Print.pp_assertion o.assertion);
    ]
    @ (match o.pos with
       | Some p ->
         [ "line", num p.Ast.line; "col", num p.Ast.col ]
       | None -> [])
  in
  let rest =
    match o.result with
    | Csp.Refine.Holds stats ->
      [ "verdict", Str "pass"; "stats", stats_json stats ]
    | Csp.Refine.Fails cex ->
      [
        "verdict", Str "fail";
        ( "counterexample",
          Obj
            [
              "trace", labels cex.Csp.Refine.trace;
              ( "violation",
                Str
                  (Format.asprintf "%a" Csp.Refine.pp_violation
                     cex.Csp.Refine.violation) );
            ] );
      ]
    | Csp.Refine.Inconclusive (stats, hint) ->
      [
        "verdict", Str "inconclusive";
        "stats", stats_json stats;
        ( "resume_hint",
          Obj
            ([
               "frontier", num hint.Csp.Refine.frontier;
               ( "exhausted",
                 Str
                   (Csp.Search.budget_kind_to_string
                      hint.Csp.Refine.exhausted) );
               "deepest", labels hint.Csp.Refine.deepest;
             ]
            @
            match hint.Csp.Refine.checkpoint with
            | Some cp -> [ "checkpoint", Csp.Search.json_of_checkpoint cp ]
            | None -> []) );
      ]
  in
  Obj (base @ rest)

(* Assemble the "cspm-check/1" report from already-rendered outcome
   objects. Split out from [json_of_outcomes] so a resumed run can splice
   the outcomes recorded in its checkpoint (rendered by the interrupted
   process) in front of the ones it computed itself; the summary is
   recounted from the "verdict" fields either way. *)
let report_of_json_outcomes ?cache outcome_jsons =
  let open Obs.Json in
  let num n = Num (float_of_int n) in
  let verdict j =
    match member "verdict" j with Some (Str s) -> s | _ -> ""
  in
  let count v =
    List.length (List.filter (fun j -> String.equal (verdict j) v) outcome_jsons)
  in
  Obj
    ([
       "schema", Str "cspm-check/1";
       "assertions", List outcome_jsons;
       ( "summary",
         Obj
           [
             "total", num (List.length outcome_jsons);
             "passed", num (count "pass");
             "failed", num (count "fail");
             "inconclusive", num (count "inconclusive");
           ] );
     ]
    @
    match cache with
    | Some stats -> [ "cache", Csp.Cache.json_of_stats stats ]
    | None -> [])

let json_of_outcomes ?cache outcomes =
  report_of_json_outcomes ?cache (List.mapi json_of_outcome outcomes)

let pp_outcome ppf o =
  let status =
    match o.result with
    | Csp.Refine.Holds _ -> "PASS"
    | Csp.Refine.Fails _ -> "FAIL"
    | Csp.Refine.Inconclusive _ -> "INCONCLUSIVE"
  in
  Format.fprintf ppf "@[<v 2>[%s] %a@ %a@]" status Print.pp_assertion
    o.assertion Csp.Refine.pp_result o.result

let pp_outcomes ppf outcomes =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
    pp_outcome ppf outcomes

(* ------------------------------------------------------------------ *)
(* The run, and the "cspm-checkpoint/1" session it stops and resumes in *)
(* ------------------------------------------------------------------ *)

type resume_state = {
  script_digest : string;
  completed : Obs.Json.t list;
  next_index : int;
  search : Csp.Search.checkpoint option;
}

let fresh script_digest =
  { script_digest; completed = []; next_index = 0; search = None }

let rendered from outcomes =
  from.completed
  @ List.mapi (fun i o -> json_of_outcome (from.next_index + i) o) outcomes

(* The state that re-runs assertion [i]: what settled before it, and the
   engine checkpoint its outcome's resume hint holds, if any. An
   interrupt and a daemon retry both stop here. *)
let resume_at from outcomes i =
  {
    from with
    completed = List.filteri (fun j _ -> j < i) (rendered from outcomes);
    next_index = i;
    search =
      (match List.nth_opt outcomes (i - from.next_index) with
       | Some { result = Csp.Refine.Inconclusive (_, hint); _ } ->
         hint.Csp.Refine.checkpoint
       | Some _ | None -> None);
  }

let interrupted o =
  match o.result with
  | Csp.Refine.Inconclusive (_, hint) ->
    hint.Csp.Refine.exhausted = Csp.Refine.Interrupt
  | Csp.Refine.Holds _ | Csp.Refine.Fails _ -> false

let run_seq ?(from = fresh "") ~(config : Csp.Check_config.t)
    (loaded : Elaborate.t) =
  let defs = loaded.Elaborate.defs in
  let assertions = Array.of_list loaded.Elaborate.assertions in
  let n = Array.length assertions and start = from.next_index in
  (* Elaborate every assertion up front (cheap, hash-consed), so what
     runs below is purely compile-and-search — and with [config.cache]
     set, each assertion's spec/impl compilation is a content-addressed
     lookup before it is ever a compile. *)
  let prepared = Array.map (prepare_at loaded) assertions in
  let config = with_run_cache ~from:start prepared config in
  let check ~config i =
    let resume = if i = start then from.search else None in
    run_at ~config ?resume defs (snd assertions.(i)) prepared.(i)
  in
  let result =
    match config.Csp.Check_config.deadline with
    | None when config.Csp.Check_config.workers > 1 && n - start > 1 ->
      (* Without a deadline the assertions are independent, so up to
         [config.workers] of them run at once, each on its own domain.
         Their errors and interrupts are taken up below in script order,
         as if they had run one after another. *)
      let results =
        Csp.Fanout.init ~workers:config.Csp.Check_config.workers (n - start)
          (fun k ->
            match check ~config (start + k) with
            | r -> Ok r
            | exception e -> Error e)
      in
      fun i -> (
        match results.(i - start) with Ok r -> r | Error e -> raise e)
    | _ ->
      (* Otherwise one after another: under a deadline each assertion's
         slice depends on how much wall clock the earlier ones used. *)
      let t0 = Obs.now () in
      fun i ->
        let config = sliced ~config ~t0 ~n i in
        Obs.span config.Csp.Check_config.obs "check.assertion" (fun () ->
            check ~config i)
  in
  (* An interrupt ends the run: the interrupted outcome still joins the
     partial report, and the run stops in the state that re-runs it. *)
  let rec go i acc =
    if i >= n then (List.rev acc, None)
    else
      let assertion, pos = assertions.(i) in
      let o = { assertion; pos = Some pos; result = result i } in
      if interrupted o then
        let outcomes = List.rev (o :: acc) in
        (outcomes, Some (resume_at from outcomes i))
      else go (i + 1) (o :: acc)
  in
  go start []

let run ?(config = Csp.Check_config.default) loaded =
  fst (run_seq ~config loaded)

let checkpoint_schema = "cspm-checkpoint/1"

let json_of_resume_state st =
  let open Obs.Json in
  Obj
    [
      "schema", Str checkpoint_schema;
      "script_digest", Str st.script_digest;
      "completed", List st.completed;
      "next_index", Num (float_of_int st.next_index);
      ( "search",
        match st.search with
        | Some cp -> Csp.Search.json_of_checkpoint cp
        | None -> Null );
    ]

let resume_state_of_json json =
  let open Obs.Json in
  let str k = Option.bind (member k json) to_str in
  match str "schema" with
  | Some s when String.equal s checkpoint_schema -> begin
    match
      ( str "script_digest",
        member "completed" json,
        Option.bind (member "next_index" json) to_int,
        member "search" json )
    with
    | Some script_digest, Some (List completed), Some next_index, search
      when next_index >= 0 && List.length completed = next_index ->
      let search =
        match search with
        | None | Some Null -> Ok None
        | Some j -> Result.map Option.some (Csp.Search.checkpoint_of_json j)
      in
      Result.map
        (fun search -> { script_digest; completed; next_index; search })
        search
    | _ ->
      Error
        "cspm-checkpoint/1: malformed fields (need script_digest, \
         completed with exactly next_index entries, next_index >= 0)"
  end
  | _ -> Error "not a cspm-checkpoint/1 document"
