(* capl2cspm — the model extractor CLI (paper Fig. 1).

   Translates CAPL node programs (plus their CAN database) into a CSPm
   script: channels and nametypes from the database, one recursive process
   per node, and the composed SYSTEM. *)

let node_name_of_path path =
  Filename.remove_extension (Filename.basename path)

let run dbc_path capl_paths output max_domain global_max max_unroll strict
    quiet lint format =
  match
    ( Cli.read_file dbc_path,
      List.map (fun p -> node_name_of_path p, Cli.read_file p) capl_paths )
  with
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | dbc, sources ->
  match Extractor.Pipeline.parse_sources ~dbc sources with
  | exception Extractor.Pipeline.Pipeline_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | db, programs ->
    (* Lint before extraction: defects in the CAPL sources should surface
       as positioned diagnostics, not as a strict-mode abort or a puzzling
       generated model. *)
    let blocked =
      match lint with
      | Some deny_warnings ->
        let ds = Extractor.Pipeline.lint_programs ~db programs in
        (match format, ds with
         | Cli.Json, _ ->
           print_endline (Obs.Json.to_string (Analysis.Diag.json_of_list ds))
         | Cli.Pretty, _ :: _ ->
           Format.eprintf "@[<v>%a@]@." Analysis.Diag.pp_list ds
         | Cli.Pretty, [] -> ());
        Analysis.Diag.blocking ~deny_warnings ds
      | None -> false
    in
    if blocked then begin
      if format = Cli.Pretty then
        Format.eprintf "extraction aborted: blocking diagnostics@.";
      Analysis.Diag.exit_code
    end
    else begin
      let config =
        {
          Extractor.Extract.default_config with
          domain =
            {
              Extractor.Extract.default_config.Extractor.Extract.domain with
              Candb.To_cspm.max_domain;
            };
          global_max;
          max_unroll;
          lenient = not strict;
        }
      in
      match Extractor.Pipeline.build ~config ~db programs with
      | exception Extractor.Extract.Unsupported w ->
        Format.eprintf "unsupported construct: %a@."
          Extractor.Extract.pp_warning w;
        1
      | system ->
        if not quiet then
          List.iter
            (fun (node, w) ->
              Format.eprintf "warning: %s: %a@." node
                Extractor.Extract.pp_warning w)
            (Extractor.Pipeline.warnings system);
        Cli.emit output (Extractor.Pipeline.emit_script system);
        if not quiet then Option.iter (Printf.eprintf "wrote %s\n") output;
        0
    end

let run dbc_path capl_paths output max_domain global_max max_unroll strict
    quiet lint format =
  (* A pathologically deep CAPL program or signal domain exhausts stack
     or heap before any budget applies. *)
  Cli.guard ~name:"capl2cspm"
    ~stack_overflow:
      "error: stack overflow — the sources nest too deeply to translate; \
       simplify them or raise the system stack limit"
    ~out_of_memory:
      "error: out of memory while translating — clamp the model with \
       --max-domain/--global-max/--max-unroll"
    (fun () ->
      run dbc_path capl_paths output max_domain global_max max_unroll strict
        quiet lint format)

open Cmdliner

let dbc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "dbc" ] ~docv:"FILE" ~doc:"CAN database (.dbc) file.")

let capl_args =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"CAPL" ~doc:"CAPL source files (one node each).")

let output_arg = Cli.output "CSPm script"

let max_domain_arg =
  Arg.(
    value & opt int 256
    & info [ "max-domain" ] ~docv:"N"
        ~doc:"Clamp any signal domain to at most $(docv) values.")

let global_max_arg =
  Arg.(
    value & opt int 7
    & info [ "global-max" ] ~docv:"N"
        ~doc:"Tracked globals live in 0..$(docv); arithmetic wraps.")

let max_unroll_arg =
  Arg.(
    value & opt int 16
    & info [ "max-unroll" ] ~docv:"N" ~doc:"Static loop-unroll bound.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Fail on untranslatable constructs instead of approximating.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress warnings.")

let lint_arg =
  Cli.lint ~instead:"extracting"
    ~doc:
      "Lint the CAPL sources against the CAN database before extraction: \
       unknown messages, handlers nothing sends to, outputs nothing \
       handles, orphaned timers, use-before-init globals \
       (definite-assignment dataflow), unreachable statements, narrowing \
       assignments (interval-gated), unused variables, and \
       interprocedural taint flows — secrets reaching the bus \
       unencrypted (CAPL101) and received payloads reaching a bus write \
       or protected sink without verification on every path (CAPL102). \
       Diagnostics carry stable CAPL codes and source positions; the \
       generated model is unaffected."

let format_arg =
  Cli.format
    ~doc:
      "Diagnostic format for $(b,--lint): $(b,pretty) (one line per \
       diagnostic on stderr, the default) or $(b,json) (one \
       machine-readable document on stdout, schema diagnostics/1)."

let cmd =
  let doc = "translate CAPL ECU applications into a CSPm model" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reproduces the model-extractor of 'Enabling Security Checking of \
         Automotive ECUs with Formal CSP Models' (DSN-W 2019): CAPL node \
         programs and their CAN database become a machine-readable CSPm \
         script for refinement checking (see $(b,cspm_check)).";
      `S Manpage.s_exit_status;
      `P "0 — extraction succeeded.";
      `P "1 — an input could not be read, parsed, or translated.";
      `P
        "2 — translation exhausted a machine resource (stack overflow \
         or out of memory) before producing a model, or the output \
         could not be written.";
      `P
        "4 — the $(b,--lint) analysis reported blocking diagnostics \
         (an error, or any warning under $(b,--deny-warnings)); \
         nothing was extracted.";
    ]
  in
  Cmd.v
    (Cmd.info "capl2cspm" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ dbc_arg $ capl_args $ output_arg $ max_domain_arg
      $ global_max_arg $ max_unroll_arg $ strict_arg $ quiet_arg
      $ lint_arg $ format_arg)

let () = exit (Cmd.eval' cmd)
