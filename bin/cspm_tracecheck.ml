(* cspm_tracecheck — fleet-scale offline trace checking.

   Two subcommands close the scenario-factory loop: [generate] runs the
   OTA demonstration network under seeded fault plans and mass-produces
   a can-trace/1 NDJSON corpus; [check] streams a corpus through the
   trace-containment engine — the spec script's processes compiled once
   to normal form, one O(1) cursor per (stream, requirement) — and
   prints per-requirement verdict counts as text or the stable
   trace-check/1 JSON document. *)

let run_check script corpus specs dbc workers max_states format sample_limit
    trace_out =
  Cli.guard ~name:"cspm_tracecheck" @@ fun () ->
  let token = Serve.Signals.create () in
  Serve.Signals.install_termination token;
  Cli.with_trace trace_out @@ fun obs ->
  let cancel = Serve.Signals.read token in
  let config =
    { Csp.Check_config.default with obs; max_states; cancel = Some cancel }
  in
  let ( let* ) = Result.bind in
  match
    let* _, loaded = Cli.load_cspm script in
    let* map, requirements =
      Serve.Trace_run.prepare ~config ~script:loaded ~specs
        ~dbc:(Option.map Cli.read_file dbc) ~corpus ()
    in
    Serve.Trace_run.check_corpus ~workers ~obs ~sample_limit
      ~budget:(Csp.Budget.create ~cancel ()) ~map ~requirements ~path:corpus
      ()
  with
  | Error msg ->
    prerr_endline ("cspm_tracecheck: " ^ msg);
    2
  | Ok report ->
    (match format with
     | Cli.Json ->
       print_endline
         (Obs.Json.to_string (Serve.Trace_run.json_of_report report))
     | Cli.Pretty -> Format.printf "%a@." Serve.Trace_run.pp_report report);
    if Serve.Trace_run.passed report then 0 else 1

let run_generate out streams seed until_ms flawed_rate no_dbc =
  Cli.guard ~name:"cspm_tracecheck" @@ fun () ->
  let s =
    Cli.writing out (fun () ->
        Ota.Corpus.generate ~seed ~streams ~until_ms ~flawed_rate
          ~embed_dbc:(not no_dbc) ~path:out ())
  in
  Printf.printf
    "wrote %s: %d streams, %d entries (%d fault entries, %d flawed \
     streams), seed %d\n"
    out s.Ota.Corpus.streams s.Ota.Corpus.entries s.Ota.Corpus.faults
    s.Ota.Corpus.flawed seed;
  0

open Cmdliner

(* generate *)

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the can-trace/1 corpus to $(docv) (atomic + durable).")

let streams_arg =
  Arg.(
    value & opt int 1000
    & info [ "streams" ] ~docv:"N"
        ~doc:"Number of independent simulation runs (corpus streams).")

let gen_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Master seed. Every fault plan derives from it by PRNG splits, \
           so equal seeds give byte-identical corpora.")

let until_ms_arg =
  Arg.(
    value & opt int 400
    & info [ "until-ms" ] ~docv:"MS"
        ~doc:"Simulated milliseconds per stream.")

let flawed_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "flawed-rate" ] ~docv:"P"
        ~doc:
          "Probability a stream runs the flawed ECU (no tag \
           verification) — the planted R05 violation.")

let no_dbc_arg =
  Arg.(
    value & flag
    & info [ "no-dbc" ]
        ~doc:
          "Do not embed the CAN database in the corpus header (checking \
           will then need an explicit $(b,--dbc)).")

let generate_cmd =
  let doc = "mass-produce an adversarial OTA trace corpus" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the paper's demonstration network (VMG + target ECU) once \
         per stream under a seeded random fault plan — frame drops, bit \
         corruption, delay, duplication, babbling-idiot interference — \
         and streams every trace-log entry to a can-trace/1 NDJSON \
         corpus. Each stream opens with a $(b,meta) line recording its \
         plan; the CAN database is embedded in the header so the corpus \
         is self-contained.";
    ]
  in
  Cmd.v
    (Cmd.info "generate" ~doc ~man)
    Term.(
      const run_generate $ out_arg $ streams_arg $ gen_seed_arg
      $ until_ms_arg $ flawed_rate_arg $ no_dbc_arg)

(* check *)

let script_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"CSPm script defining the specs.")

let corpus_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "corpus" ] ~docv:"FILE" ~doc:"can-trace/1 NDJSON corpus.")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "spec" ] ~docv:"NAME"
        ~doc:
          "Nullary process to check trace containment against \
           (repeatable). Default: every definition named SPEC*.")

let dbc_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "dbc" ] ~docv:"FILE"
        ~doc:
          "CAN database mapping frames to spec events. Default: the \
           database embedded in the corpus header.")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "workers" ] ~docv:"N"
        ~doc:
          "Parsing/mapping domains. Verdicts are identical at any \
           $(docv); only throughput changes.")

let max_states_arg =
  Arg.(
    value
    & opt int Csp.Check_config.default.max_states
    & info [ "max-states" ] ~docv:"N"
        ~doc:"State budget for compiling each spec's normal form.")

let format_arg =
  Cli.format
    ~doc:
      "Output format: $(b,pretty) text or the stable $(b,json) \
       trace-check/1 document."

let sample_limit_arg =
  Arg.(
    value & opt int 5
    & info [ "sample-limit" ] ~docv:"N"
        ~doc:"Rejection examples retained per requirement.")

let trace_out_arg =
  Cli.trace_out "tracecheck.* counters, events/s histogram, spans"

let check_cmd =
  let doc = "check a trace corpus against CSPm specs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each spec once to its normal form (through the \
         content-addressed LTS cache when warm), maps every logged \
         frame to a spec event via the extractor's channel alphabet, \
         and advances one O(1) cursor per (stream, requirement) — no \
         state-space search, constant memory per stream, parallel \
         across domains. A corrupt corpus line costs only its own \
         stream.";
      `S Manpage.s_exit_status;
      `P "0 — every stream accepted by every requirement.";
      `P "1 — some stream rejected, corrupt, or malformed.";
      `P
        "2 — the script, database, or corpus could not be loaded, a \
         spec's compile stopped (SIGINT/SIGTERM, or $(b,--max-states)), \
         the corpus pass stopped (SIGINT/SIGTERM), or the \
         $(b,--trace-out) file could not be written.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man)
    Term.(
      const run_check $ script_arg $ corpus_arg $ spec_arg $ dbc_arg
      $ workers_arg $ max_states_arg $ format_arg $ sample_limit_arg
      $ trace_out_arg)

let cmd =
  let doc = "streaming trace containment for CAN trace corpora" in
  Cmd.group (Cmd.info "cspm_tracecheck" ~version:"1.0.0" ~doc)
    [ generate_cmd; check_cmd ]

let () = exit (Cmd.eval' cmd)
