(* cspm_check — a miniature FDR: load a CSPm script and run its assert
   declarations (trace/failures refinement, deadlock and divergence
   freedom), printing counterexample traces for failures. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type format = Pretty | Json

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

(* Exit codes: 0 all assertions hold, 1 at least one definite failure,
   2 load/usage error (including a stack overflow or out-of-memory while
   loading or translating the model), 3 no failures but at least one
   inconclusive (budget exhausted — rerun with a larger
   --timeout/--max-states), 4 blocking lint diagnostics under
   --lint/--deny-warnings, 5 interrupted by SIGINT/SIGTERM — the partial
   report is still valid, and with --checkpoint-out the run can be
   continued by --resume. A definite failure outranks an interrupt
   outranks a plain inconclusive. *)
let run path max_states timeout jobs list_only dot format progress trace_out
    lint deny_warnings checkpoint_out resume_file memory_limit reductions
    output use_cache cache_dir =
  match Csp.Reduce.pipeline_of_string reductions with
  | Error msg ->
    Format.eprintf "--reductions: %s@." msg;
    2
  | Ok pipeline ->
  let lint = lint || deny_warnings in
  let workers =
    if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs
  in
  let token = Serve.Signals.create () in
  Serve.Signals.install_termination token;
  (* The trace stream goes to a hidden temp file renamed into place on
     close, so an interrupt can never leave a truncated JSONL artifact. *)
  let trace_tmp =
    Option.map
      (fun path ->
        let temp_dir = Filename.dirname path in
        let tmp, oc =
          Filename.open_temp_file ~temp_dir
            ("." ^ Filename.basename path ^ ".")
            ".tmp"
        in
        (path, tmp, oc))
      trace_out
  in
  let obs =
    match trace_tmp with
    | Some (_, _, oc) -> Obs.create (Obs.Jsonl oc)
    | None -> Obs.silent
  in
  let emit_report text =
    match output with
    | Some path -> Serve.Fsio.atomic_write ~path text
    | None -> print_string text
  in
  (* One cache per invocation: within a run it deduplicates spec/impl
     compilation across assertions; with --cache-dir it also persists
     graphs so the next invocation starts warm. *)
  let cache =
    if use_cache || Option.is_some cache_dir then
      let persist =
        Option.map
          (fun dir ->
            (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
             with Unix.Unix_error _ -> ());
            {
              Csp.Cache.dir;
              write = (fun ~path text -> Serve.Fsio.atomic_write ~path text);
            })
          cache_dir
      in
      Some (Csp.Cache.create ~obs ?persist ())
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.flush obs;
      Option.iter
        (fun (path, tmp, oc) ->
          close_out_noerr oc;
          try Sys.rename tmp path with Sys_error _ -> ())
        trace_tmp)
    (fun () ->
      match read_file path with
      | exception Sys_error msg ->
        Format.eprintf "%s@." msg;
        2
      | source ->
      match Cspm.Elaborate.load_string ~obs source with
      | exception Cspm.Parser.Parse_error (msg, pos) ->
        Format.eprintf "%s:%a: syntax error: %s@." path Cspm.Ast.pp_pos pos msg;
        2
      | exception Cspm.Lexer.Lex_error (msg, pos) ->
        Format.eprintf "%s:%a: lexical error: %s@." path Cspm.Ast.pp_pos pos
          msg;
        2
      | exception Cspm.Elaborate.Elab_error (msg, pos) ->
        (match pos with
         | Some pos -> Format.eprintf "%s:%a: %s@." path Cspm.Ast.pp_pos pos msg
         | None -> Format.eprintf "%s: %s@." path msg);
        2
      | loaded ->
        if Option.is_some dot then begin
          let name = Option.get dot in
          match Csp.Defs.proc loaded.Cspm.Elaborate.defs name with
          | None ->
            Format.eprintf "%s: no process named %s@." path name;
            2
          | Some (_ :: _, _) ->
            Format.eprintf
              "%s: %s takes parameters; --dot needs a closed process@." path
              name;
            2
          | Some ([], _) ->
            let lts =
              Csp.Lts.compile ~max_states loaded.Cspm.Elaborate.defs
                (Csp.Proc.call (name, []))
            in
            print_string (Csp.Lts.to_dot lts);
            0
        end
        else if list_only then begin
          List.iter
            (fun (a, _) -> Format.printf "%a@." Cspm.Print.pp_assertion a)
            loaded.Cspm.Elaborate.assertions;
          0
        end
        else begin
          (* The static pass runs (and prints) before any refinement so a
             defective model fails fast instead of burning the search
             budget. Blocking diagnostics abort with their own exit code. *)
          let diags =
            if lint then
              Some (Analysis.Cspm_analyze.analyze_loaded ~obs ~file:path loaded)
            else None
          in
          (match format, diags with
           | Pretty, Some (_ :: _ as ds) ->
             Format.printf "@[<v>%a@]@." Analysis.Diag.pp_list ds
           | _ -> ());
          match diags with
          | Some ds when Analysis.Diag.blocking ~deny_warnings ds ->
            (match format with
             | Json ->
               print_string
                 (Obs.Json.to_string (Analysis.Diag.json_of_list ds));
               print_newline ()
             | Pretty ->
               Format.printf "refinement not run: blocking diagnostics@.");
            Analysis.Diag.exit_code
          | _ ->
          let ticked = ref false in
          let config =
            let open Csp.Check_config in
            let c =
              default |> with_max_states max_states |> with_workers workers
              |> with_obs obs
              |> with_cancel (Serve.Signals.read token)
              |> with_reductions pipeline
            in
            let c =
              match timeout with Some t -> with_deadline t c | None -> c
            in
            let c =
              match memory_limit with
              | Some mb -> with_memory_limit mb c
              | None -> c
            in
            let c =
              match cache with Some k -> with_cache k c | None -> c
            in
            if progress then
              with_progress
                (fun p ->
                  ticked := true;
                  progress_line p)
                c
            else c
          in
          (* The digest covers the reduction setting as well as the script
             text: a checkpoint records a visit order, and the visit order
             of a reduced search means nothing to a differently-reduced
             one, so a mismatched --resume must fail loudly up front. *)
          let script_digest =
            Csp.Cache.script_digest
              (source ^ "\x00reductions="
              ^ Csp.Reduce.pipeline_to_string pipeline)
          in
          let resume_state =
            match resume_file with
            | None -> Ok None
            | Some file -> (
              match read_file file with
              | exception Sys_error msg -> Error msg
              | text -> (
                match Obs.Json.parse text with
                | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
                | Ok json -> (
                  match Cspm.Check.resume_state_of_json json with
                  | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
                  | Ok st ->
                    if
                      not
                        (String.equal st.Cspm.Check.script_digest
                           script_digest)
                    then
                      Error
                        (Printf.sprintf
                           "%s: checkpoint was taken against a different \
                            script or --reductions setting"
                           file)
                    else Ok (Some st))))
          in
          match resume_state with
          | Error msg ->
            Format.eprintf "%s@." msg;
            2
          | Ok resume_state ->
            if Option.is_some checkpoint_out || Option.is_some resume_file
            then begin
              (* The crash-safe sequential path: assertions run in script
                 order so an interrupt has a well-defined "next assertion"
                 to record, and a resumed run knows exactly what is left. *)
              let start, resume_first, completed =
                match resume_state with
                | Some st ->
                  ( st.Cspm.Check.next_index,
                    st.Cspm.Check.search,
                    st.Cspm.Check.completed )
                | None -> (0, None, [])
              in
              let outcomes, stop =
                Cspm.Check.run_seq ~start ?resume_first ~config loaded
              in
              if !ticked then Printf.eprintf "\n%!";
              let rendered_new =
                List.mapi
                  (fun i o -> Cspm.Check.json_of_outcome (start + i) o)
                  outcomes
              in
              let rendered = completed @ rendered_new in
              (* checkpoint before report: if writing the report is what
                 dies next, the checkpoint already exists *)
              (match stop, checkpoint_out with
               | Some s, Some ck_path ->
                 let settled = s.Cspm.Check.next_index - start in
                 let st =
                   {
                     Cspm.Check.script_digest;
                     completed =
                       completed
                       @ List.filteri (fun i _ -> i < settled) rendered_new;
                     next_index = s.Cspm.Check.next_index;
                     search = s.Cspm.Check.search;
                   }
                 in
                 Serve.Fsio.atomic_write ~path:ck_path
                   (Obs.Json.to_string (Cspm.Check.json_of_resume_state st)
                    ^ "\n");
                 Format.eprintf "interrupted: checkpoint written to %s@."
                   ck_path
               | Some _, None ->
                 Format.eprintf
                   "interrupted (no --checkpoint-out, so nothing to resume \
                    from)@."
               | None, Some ck_path ->
                 (* the run finished: a stale checkpoint would resume into
                    the past, so clear it *)
                 if Sys.file_exists ck_path then Sys.remove ck_path
               | None, None -> ());
              let count v =
                List.length
                  (List.filter
                     (fun j -> String.equal (json_verdict j) v)
                     rendered)
              in
              let failures = count "fail" in
              let inconclusive = count "inconclusive" in
              (match format with
               | Json ->
                 let doc =
                   splice_diags diags
                     (Cspm.Check.report_of_json_outcomes
                        ?cache:(Option.map Csp.Cache.stats cache)
                        rendered)
                 in
                 emit_report (Obs.Json.to_string doc ^ "\n")
               | Pretty ->
                 let buf = Buffer.create 256 in
                 let bppf = Format.formatter_of_buffer buf in
                 List.iter
                   (fun j ->
                     let a =
                       match Obs.Json.member "assertion" j with
                       | Some (Obs.Json.Str s) -> s
                       | _ -> "?"
                     in
                     Format.fprintf bppf "[%s] %s (from checkpoint)@."
                       (String.uppercase_ascii (json_verdict j))
                       a)
                   completed;
                 Format.fprintf bppf "@[<v>%a@]@." Cspm.Check.pp_outcomes
                   outcomes;
                 Format.fprintf bppf
                   "%d assertion(s), %d failure(s), %d inconclusive@."
                   (List.length rendered) failures inconclusive;
                 Format.pp_print_flush bppf ();
                 emit_report (Buffer.contents buf));
              if failures > 0 then 1
              else if Option.is_some stop then 5
              else if inconclusive > 0 then 3
              else 0
            end
            else begin
              let outcomes = Cspm.Check.run ~config loaded in
              (* finish the carriage-return progress line before reporting *)
              if !ticked then Printf.eprintf "\n%!";
              let count p = List.length (List.filter p outcomes) in
              let failures =
                count (fun o ->
                    match o.Cspm.Check.result with
                    | Csp.Refine.Fails _ -> true
                    | _ -> false)
              in
              let inconclusive =
                count (fun o -> Csp.Refine.inconclusive o.Cspm.Check.result)
              in
              let interrupted =
                List.exists
                  (fun o ->
                    match o.Cspm.Check.result with
                    | Csp.Refine.Inconclusive (_, hint) ->
                      hint.Csp.Refine.exhausted = Csp.Refine.Interrupt
                    | _ -> false)
                  outcomes
              in
              (match format with
               | Json ->
                 let doc =
                   splice_diags diags
                     (Cspm.Check.json_of_outcomes
                        ?cache:(Option.map Csp.Cache.stats cache)
                        outcomes)
                 in
                 emit_report (Obs.Json.to_string doc ^ "\n")
               | Pretty ->
                 emit_report
                   (Format.asprintf
                      "@[<v>%a@]@.%d assertion(s), %d failure(s), %d \
                       inconclusive@."
                      Cspm.Check.pp_outcomes outcomes (List.length outcomes)
                      failures inconclusive));
              if failures > 0 then 1
              else if interrupted then 5
              else if inconclusive > 0 then 3
              else 0
            end
        end)

let run path max_states timeout jobs list_only dot format progress trace_out
    lint deny_warnings checkpoint_out resume_file memory_limit reductions
    output use_cache cache_dir =
  (* The two non-budgeted resource exhaustions a pathological model can
     trigger land here rather than as raw uncaught exceptions. *)
  try
    run path max_states timeout jobs list_only dot format progress trace_out
      lint deny_warnings checkpoint_out resume_file memory_limit reductions
      output use_cache cache_dir
  with
  | Stack_overflow ->
    Format.eprintf
      "%s: stack overflow — the model recurses too deeply; simplify the \
       process structure or raise the system stack limit@."
      path;
    2
  | Out_of_memory ->
    Format.eprintf
      "%s: out of memory — bound the search with --max-states or degrade \
       gracefully with --memory-limit@."
      path;
    2

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
           assertions run one after another. Verdicts, counterexamples, \
           and state/pair counts are identical to -j 1.")

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
  Arg.(
    value
    & opt (enum [ "pretty", Pretty; "json", Json ]) Pretty
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,pretty) (human-readable, the default) or \
           $(b,json) (one machine-readable document on stdout, schema \
           cspm-check/1: per-assertion verdict, counterexample trace, \
           stats, and resume hint, plus a summary object). Exit codes \
           are the same in both formats.")

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
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the pre-check static analysis before any refinement: \
           unguarded recursion, impossible synchronisation sets, \
           processes unreachable from assertions, dead channels, and \
           unbounded-data recursion. Diagnostics (stable CSPM0xx codes \
           with source positions) print before the first check; with \
           $(b,--format) $(b,json) they appear as a $(b,diagnostics) \
           field of the output document. Verdicts and counterexamples \
           are unaffected.")

let deny_warnings_arg =
  Arg.(
    value & flag
    & info [ "deny-warnings" ]
        ~doc:
          "Implies $(b,--lint); treat warning diagnostics as blocking: \
           if the analysis reports any error or warning, print the \
           diagnostics and exit with status 4 without running any \
           assertion.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the observability stream (parse/elaborate/compile/\
           normalise/search spans, then a final metric snapshot) to \
           $(docv) as JSON Lines. The file is written to a temporary \
           name and renamed into place on completion, so an interrupted \
           run never leaves a truncated stream. Does not affect verdicts \
           or timing of the checks themselves.")

let checkpoint_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-out" ] ~docv:"FILE"
        ~doc:
          "Run assertions sequentially and, if the run is interrupted by \
           SIGINT/SIGTERM, write a resumable checkpoint (schema \
           cspm-checkpoint/1) to $(docv): the outcomes already settled, \
           the assertion that was cut short, and the engine's \
           commit-boundary snapshot of its product search. The write is \
           atomic (temp file + rename). If the run completes, a stale \
           $(docv) from an earlier interrupt is removed.")

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
          "Heap watermark in MiB, polled at the engine's cadence: if the \
           OCaml heap crosses it, the running check returns INCONCLUSIVE \
           (exhausted: memory) while the process is still healthy enough \
           to write its report and checkpoint — instead of being killed \
           by the OOM killer mid-write.")

let reductions_arg =
  Arg.(
    value & opt string "default"
    & info [ "reductions" ] ~docv:"LIST"
        ~doc:
          "Staged state-space reductions applied before/during the \
           product search: $(b,default) (all of them), $(b,none) (the \
           raw engine), or a comma-separated subset of $(b,dead) \
           (relabel events the specification ignores everywhere to tau; \
           traces checks only), $(b,tau) (tau-chain/SCC compression), \
           $(b,bisim) (strong-bisimulation quotient), $(b,por) \
           (ample-set partial-order reduction of independent \
           interleavings, applied during the search; traces checks \
           only). Passes that do not apply to an assertion's model are \
           skipped. Verdicts and counterexample traces are identical \
           under every setting — counterexamples are re-derived by the \
           raw engine — only speed and the reported reduction stats \
           change. A checkpoint can only be resumed under the \
           $(b,--reductions) setting it was taken with.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:
          "Write the report (either format) to $(docv) atomically (temp \
           file + rename) instead of stdout.")

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Cache compiled/normalised/reduced LTSs, keyed by a content \
           digest of each assertion's elaborated terms plus everything \
           that affects the graphs (declarations, reachable definitions, \
           state budget, reduction pipeline, refinement model). Within a \
           run, assertions sharing a specification or implementation \
           compile it once. Verdicts, counterexamples, and \
           per-assertion stats are byte-identical with or without the \
           cache; with $(b,--format) $(b,json) the report gains a \
           top-level $(b,cache) object with hit/miss/eviction counts.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Implies $(b,--cache); additionally persist cache entries to \
           $(docv) (created if missing) and reuse them across \
           invocations, so re-checking an edited script only recompiles \
           the components whose definitions changed. Entries are written \
           atomically and validated on load; stale or foreign files are \
           ignored.")

let cmd =
  let doc = "run the assert declarations of a CSPm script" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — every assertion holds.";
      `P "1 — at least one assertion definitely fails.";
      `P
        "2 — the script could not be loaded (syntax or semantic error, \
         stack overflow, or out of memory).";
      `P
        "3 — no assertion fails, but at least one is inconclusive \
         because a state, pair, $(b,--timeout), or $(b,--memory-limit) \
         budget was exhausted.";
      `P
        "4 — the $(b,--lint) analysis reported blocking diagnostics \
         (an error, or any warning under $(b,--deny-warnings)); no \
         assertion was run.";
      `P
        "5 — interrupted by SIGINT/SIGTERM: the report covers what was \
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
      $ lint_arg $ deny_warnings_arg $ checkpoint_out_arg $ resume_arg
      $ memory_limit_arg $ reductions_arg $ output_arg $ cache_arg
      $ cache_dir_arg)

let () = exit (Cmd.eval' cmd)
