(* cspm_check — a miniature FDR: load a CSPm script and run its assert
   declarations (trace/failures refinement, deadlock and divergence
   freedom), printing counterexample traces for failures. *)

(* The live progress line: one line on stderr, rewritten in place at the
   engine's progress cadence (once per 256 dequeues), so tiny checks
   print nothing. stdout stays clean for --format json. *)
let progress_line (p : Csp.Search.progress) =
  Printf.eprintf "\r  %d pairs · %.0f states/sec · frontier %d · %.1f%% of budget%!"
    p.Csp.Search.pairs p.Csp.Search.rate p.Csp.Search.frontier
    (100. *. p.Csp.Search.budget_frac)

let json_verdict j =
  match Obs.Json.member "verdict" j with
  | Some (Obs.Json.Str s) -> s
  | _ -> ""

let splice_diags diags doc =
  match diags, doc with
  | Some (_ :: _ as ds), Obs.Json.Obj fields ->
    Obs.Json.Obj (fields @ [ "diagnostics", Analysis.Diag.json_of_list ds ])
  | _ -> doc

(* Render a run's report in either format and choose its exit code (the
   codes are listed in the man page below): the outcomes a run from
   [from] computed, after the ones [from] settled (read back from a
   checkpoint when resumed). [lead] precedes a pretty report. A definite
   failure outranks an interrupt outranks a plain inconclusive. *)
let report ~format ~output ~diags ~lead ~cache ~from ~interrupted outcomes =
  let rendered = Cspm.Check.rendered from outcomes in
  let count v =
    List.length
      (List.filter (fun j -> String.equal (json_verdict j) v) rendered)
  in
  let failures = count "fail" and inconclusive = count "inconclusive" in
  Cli.emit output
    (match format with
     | Cli.Json ->
       Obs.Json.to_string
         (splice_diags diags
            (Cspm.Check.report_of_json_outcomes
               ?cache:(Option.map Csp.Cache.stats cache)
               rendered))
       ^ "\n"
     | Cli.Pretty ->
       let from_checkpoint ppf j =
         Format.fprintf ppf "[%s] %s (from checkpoint)@."
           (String.uppercase_ascii (json_verdict j))
           (match Obs.Json.member "assertion" j with
            | Some (Obs.Json.Str s) -> s
            | _ -> "?")
       in
       lead
       ^ Format.asprintf
           "%a@[<v>%a@]@.%d assertion(s), %d failure(s), %d inconclusive@."
           (Format.pp_print_list ~pp_sep:(fun _ () -> ()) from_checkpoint)
           from.Cspm.Check.completed Cspm.Check.pp_outcomes outcomes
           (List.length rendered) failures inconclusive);
  if failures > 0 then 1
  else if interrupted then 5
  else if inconclusive > 0 then 3
  else 0

(* The checkpoint --resume names, refused unless it was taken against
   this script under this --reductions setting. *)
let read_checkpoint ~script_digest = function
  | None -> Ok None
  | Some file -> (
    let in_file r = Result.map_error (Printf.sprintf "%s: %s" file) r in
    match
      Result.bind
        (in_file (Obs.Json.parse (Cli.read_file file)))
        (fun json -> in_file (Cspm.Check.resume_state_of_json json))
    with
    | exception Sys_error msg -> Error msg
    | Ok st when String.equal st.Cspm.Check.script_digest script_digest ->
      Ok (Some st)
    | Ok _ ->
      Error
        (file
       ^ ": checkpoint was taken against a different script or \
          --reductions setting")
    | Error msg -> Error msg)

(* --dot: the graph an FD check searches, under the same budgets. *)
let print_dot ~config path (loaded : Cspm.Elaborate.t) name =
  match Csp.Defs.proc loaded.Cspm.Elaborate.defs name with
  | None ->
    Format.eprintf "%s: no process named %s@." path name;
    2
  | Some (_ :: _, _) ->
    Format.eprintf "%s: %s takes parameters; --dot needs a closed process@."
      path name;
    2
  | Some ([], _) -> (
    match
      Csp.Refine.explicit_graph ~config loaded.Cspm.Elaborate.defs
        (Csp.Proc.call (name, []))
    with
    | Csp.Lts.Complete lts ->
      print_string (Csp.Lts.to_dot lts);
      0
    | Csp.Lts.Partial progress ->
      Format.eprintf "%s: --dot %s: %s after %d states, no graph@." path name
        (match progress.Csp.Lts.reason with
         | Csp.Budget.States | Pairs -> "state budget (--max-states) exhausted"
         | Deadline -> "deadline (--timeout) exhausted"
         | Interrupt -> "interrupted"
         | Memory -> "memory watermark (--memory-limit) crossed")
        progress.Csp.Lts.interned;
      2
    | exception
        (( Csp.Semantics.Unguarded _ | Csp.Semantics.Ill_formed _
         | Csp.Expr.Eval_error _ ) as e) ->
      Format.eprintf "%s: --dot %s: %s@." path name
        (Cspm.Check.error_message e);
      2)

let run path max_states timeout jobs list_only dot format progress trace_out
    lint checkpoint_out resume_file memory_limit reductions output cache =
  match Csp.Reduce.pipeline_of_string reductions with
  | Error msg ->
    Format.eprintf "--reductions: %s@." msg;
    2
  | Ok pipeline -> (
    let token = Serve.Signals.create () in
    Serve.Signals.install_termination token;
    Cli.with_trace trace_out @@ fun obs ->
    (* One cache per invocation: within a run it deduplicates spec/impl
       compilation across assertions; with --cache-dir it also persists
       graphs so the next invocation starts warm. *)
    let cache = Cli.make_cache ~obs cache in
    match Cli.load_cspm ~obs path with
    | Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Ok (source, loaded) -> (
      let config =
        {
          Csp.Check_config.default with
          max_states;
          deadline = timeout;
          cancel = Some (Serve.Signals.read token);
        }
      in
      match dot with
      | Some name -> print_dot ~config path loaded name
      | None when list_only ->
        List.iter
          (fun (a, _) -> Format.printf "%a@." Cspm.Print.pp_assertion a)
          loaded.Cspm.Elaborate.assertions;
        0
      | None -> (
        (* The static pass runs (and prints) before any refinement so a
           defective model fails fast instead of burning the search
           budget. Blocking diagnostics abort with their own exit code.
           Diagnostics go where the report goes: on stdout they print at
           once, and with -o they lead the file. *)
        let diags =
          Option.map
            (fun _ ->
              Analysis.Cspm_analyze.analyze_loaded ~obs ~file:path loaded)
            lint
        in
        let pretty_diags =
          match format, diags with
          | Cli.Pretty, Some (_ :: _ as ds) ->
            Format.asprintf "@[<v>%a@]@." Analysis.Diag.pp_list ds
          | _ -> ""
        in
        match lint, diags with
        | Some deny_warnings, Some ds
          when Analysis.Diag.blocking ~deny_warnings ds ->
          Cli.emit output
            (match format with
             | Cli.Json ->
               Obs.Json.to_string (Analysis.Diag.json_of_list ds) ^ "\n"
             | Cli.Pretty ->
               pretty_diags ^ "refinement not run: blocking diagnostics\n");
          Analysis.Diag.exit_code
        | _ -> (
          let lead =
            match output with
            | None ->
              print_string pretty_diags;
              ""
            | Some _ -> pretty_diags
          in
          let ticked = ref false in
          let config =
            {
              config with
              Csp.Check_config.workers =
                (if jobs = 0 then Domain.recommended_domain_count ()
                 else max 1 jobs);
              obs;
              reductions = pipeline;
              memory_limit_mb = memory_limit;
              cache;
              progress =
                (if progress then
                   Some
                     (fun p ->
                       ticked := true;
                       progress_line p)
                 else None);
            }
          in
          let script_digest = Csp.Cache.script_digest ~pipeline source in
          match read_checkpoint ~script_digest resume_file with
          | Error msg ->
            Format.eprintf "%s@." msg;
            2
          | Ok resume ->
            let from =
              Option.value resume ~default:(Cspm.Check.fresh script_digest)
            in
            let outcomes, stop = Cspm.Check.run_seq ~from ~config loaded in
            (* finish the carriage-return progress line before reporting *)
            if !ticked then Printf.eprintf "\n%!";
            (* checkpoint before report: if writing the report is what dies
               next, the checkpoint already exists *)
            (match stop, checkpoint_out with
             | Some st, Some ck_path ->
               Cli.write ~path:ck_path
                 (Obs.Json.to_string (Cspm.Check.json_of_resume_state st)
                 ^ "\n");
               Format.eprintf "interrupted: checkpoint written to %s@." ck_path
             | Some _, None ->
               Format.eprintf
                 "interrupted (no --checkpoint-out, so nothing to resume \
                  from)@."
             | None, Some ck_path ->
               (* the run finished: a stale checkpoint would resume into
                  the past, so clear it *)
               Cli.writing ck_path (fun () ->
                   if Sys.file_exists ck_path then Sys.remove ck_path)
             | None, None -> ());
            report ~format ~output ~diags ~lead ~cache ~from
              ~interrupted:(Option.is_some stop) outcomes))))

let run path max_states timeout jobs list_only dot format progress trace_out
    lint checkpoint_out resume_file memory_limit reductions output cache =
  Cli.guard ~name:"cspm_check"
    ~stack_overflow:
      (path
     ^ ": stack overflow — the model recurses too deeply; simplify the \
        process structure or raise the system stack limit")
    ~out_of_memory:
      (path
     ^ ": out of memory — bound the search with --max-states or degrade \
        gracefully with --memory-limit")
    (fun () ->
      try
        run path max_states timeout jobs list_only dot format progress
          trace_out lint checkpoint_out resume_file memory_limit reductions
          output cache
      with Cspm.Check.Check_error (pos, e) ->
        Format.eprintf "%s:%a: %s@." path Cspm.Ast.pp_pos pos
          (Cspm.Check.error_message e);
        2)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"CSPm script to check.")

let max_states_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-states" ] ~docv:"N"
        ~doc:"State bound for compilation and product exploration.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget for the whole run. Each assertion's slice is \
           recomputed as remaining budget over remaining assertions, so \
           time a fast assertion leaves unused rolls forward to later \
           ones. Checks that exhaust their slice report INCONCLUSIVE \
           with a resume hint instead of an answer; if any assertion is \
           inconclusive and none definitely fails, the exit code is 3.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of independent assertions checked at once, each on its \
           own OCaml domain; 0 means the runtime's recommended count. \
           Each product search runs on one domain, and under --timeout \
           assertions run one after another. It applies to checkpointed \
           and resumed runs too. Verdicts, counterexamples, state/pair \
           counts and the assertion an interrupt stops at are identical \
           to -j 1.")

let list_arg =
  Arg.(
    value & flag
    & info [ "l"; "list" ] ~doc:"List the assertions without running them.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"PROCESS"
        ~doc:
          "Instead of checking, print the named process's state graph in \
           Graphviz format (FDR's visualisation role).")

let format_arg =
  Cli.format
    ~doc:
      "Output format: $(b,pretty) (human-readable, the default) or \
       $(b,json) (one machine-readable document on stdout, schema \
       cspm-check/1: per-assertion verdict, counterexample trace, stats, \
       and resume hint, plus a summary object). Exit codes are the same \
       in both formats."

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Render a live progress line on stderr (pairs explored, \
           states/sec, frontier depth, % of the pair budget) while each \
           assertion's product search runs. Updates are throttled to the \
           engine's polling cadence, so fast checks print nothing.")

let lint_arg =
  Cli.lint ~instead:"running any assertion"
    ~doc:
      "Run the pre-check static analysis before any refinement: \
       unguarded recursion, impossible synchronisation sets, processes \
       unreachable from assertions, dead channels, and unbounded-data \
       recursion. Diagnostics (stable CSPM0xx codes with source \
       positions) print before the first check; with $(b,--format) \
       $(b,json) they appear as a $(b,diagnostics) field of the output \
       document. Verdicts and counterexamples are unaffected."

let trace_out_arg =
  Cli.trace_out
    "parse/elaborate/compile/normalise/search spans, then a final metric \
     snapshot"

let checkpoint_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-out" ] ~docv:"FILE"
        ~doc:
          "If the run is interrupted by SIGINT/SIGTERM, write a \
           resumable checkpoint (schema cspm-checkpoint/1) to $(docv): \
           the outcomes already settled, the assertion that was cut \
           short, and the engine's commit-boundary snapshot of its \
           product search. The write is atomic (temp file + rename). If \
           the run completes, a stale $(docv) from an earlier interrupt \
           is removed.")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Continue an interrupted run from the checkpoint in $(docv). \
           The script must be byte-identical to the one the checkpoint \
           was taken against (a digest is checked), and budgets must \
           match the interrupted run. Settled outcomes are reported from \
           the checkpoint; the interrupted assertion is fast-forwarded \
           to the exact point it was cut and continues from there. Final \
           verdicts, counterexamples, and state/pair counts are \
           byte-identical to an uninterrupted run.")

let memory_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "memory-limit" ] ~docv:"MB"
        ~doc:
          "Heap watermark in MiB, polled wherever a check spends its \
           time: the implementation's compile, the specification's \
           normal form and the product search. If the OCaml heap crosses \
           it, the running check returns INCONCLUSIVE (exhausted: \
           memory) while the process is still healthy enough to write \
           its report and checkpoint — instead of being killed by the \
           OOM killer mid-write.")

let reductions_arg =
  Arg.(
    value & opt string "default"
    & info [ "reductions" ] ~docv:"LIST"
        ~doc:
          "Staged state-space reductions applied between compilation \
           and the product search: $(b,default) (all of them), \
           $(b,none) (the raw engine), or a comma-separated subset of \
           $(b,dead) (relabel events the specification ignores \
           everywhere to tau; traces checks only), $(b,tau) \
           (tau-chain/SCC compression) and $(b,bisim) \
           (strong-bisimulation quotient). Passes that do not apply to \
           an assertion's model are skipped. Verdicts and counterexample \
           traces are identical under every setting — counterexamples \
           are re-derived on the unreduced graph, which is the raw \
           engine's — only speed and the reported reduction stats \
           change. A checkpoint can only be resumed under the \
           $(b,--reductions) setting it was taken with.")

let output_arg = Cli.output "report (either format)"

let cache_arg =
  Cli.cache
    ~doc:
      "Cache compiled/normalised/reduced LTSs, keyed by a content digest \
       of each assertion's elaborated terms plus everything that affects \
       the graphs (declarations, reachable definitions, state budget, \
       reduction pipeline, refinement model). Within a run, assertions \
       sharing a specification or implementation compile it once; \
       assertions that hide different events of one system share its \
       compile even without this flag. Verdicts, counterexamples, and \
       per-assertion stats are byte-identical with or without the cache; \
       with $(b,--format) $(b,json) the report gains a top-level \
       $(b,cache) object with hit/miss/eviction counts."
    ~dir_doc:
      "Later invocations reuse them, so re-checking an edited script only \
       recompiles the components whose definitions changed; stale or \
       foreign files are ignored."

let cmd =
  let doc = "run the assert declarations of a CSPm script" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — every assertion holds.";
      `P "1 — at least one assertion definitely fails.";
      `P
        "2 — the script could not be loaded (syntax or semantic error, \
         stack overflow, or out of memory), an output file or the \
         $(b,--cache-dir) directory could not be written, or an \
         assertion names a process the semantics cannot step \
         (unguarded recursion, an ill-formed call), reported at that \
         assertion's position.";
      `P
        "3 — no assertion fails, but at least one is inconclusive \
         because a state, pair, $(b,--timeout), or $(b,--memory-limit) \
         budget was exhausted.";
      `P
        "4 — the $(b,--lint) analysis reported blocking diagnostics \
         (an error, or any warning under $(b,--deny-warnings)); no \
         assertion was run.";
      `P
        "5 — interrupted by SIGINT/SIGTERM, whether the check was \
         compiling, normalising its specification or searching: the run \
         stops at the interrupted assertion, the report covers what was \
         checked, and with $(b,--checkpoint-out) the run can be \
         continued with $(b,--resume). A definite failure still exits \
         1; an interrupt outranks a plain inconclusive 3.";
    ]
  in
  Cmd.v
    (Cmd.info "cspm_check" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ file_arg $ max_states_arg $ timeout_arg $ jobs_arg
      $ list_arg $ dot_arg $ format_arg $ progress_arg $ trace_out_arg
      $ lint_arg $ checkpoint_out_arg $ resume_arg $ memory_limit_arg
      $ reductions_arg $ output_arg $ cache_arg)

let () = exit (Cmd.eval' cmd)
