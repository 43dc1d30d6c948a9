(* Machine-readable perf trajectory: runs the stock refinement workloads
   and writes BENCH_csp.json (check name -> total wall time, search-span
   wall time, impl states, pairs, states/s over the search span) so
   speedups and regressions are comparable across PRs.

   Usage: dune exec bench/report.exe [-- OUTPUT.json]
   The workloads are the paper's S1 scalability series (domain
   scaling k = 2..32, interleaved-ECU scaling n = 2..12) and the
   Needham-Schroeder authentication check — the checks whose before/after
   numbers EXPERIMENTS.md tracks — plus an ablate/reductions family that
   re-runs NS under each single reduction pass, and cache/all-hits rows
   that time the edit daemon's fully cached re-check against an uncached
   cache/none twin ("ratio_vs_check"). The trace-check rows are
   re-run on 2 worker domains (rows suffixed /j2), whose "speedup_vs_j1"
   compares their wall time to the /j1 row; the non-search rows (the CSPm
   lint, the live-JSONL rerun) carry "ratio_vs_check" instead — their
   wall time relative to the check they ride alongside, which is the
   number that actually means something for them. The "_meta" entry
   records how many cores the host actually had, since speedup on a
   single-core box measures only the fan-out's overhead. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

(* What a row's wall time is measured against. A /j2 rerun races its own
   /j1 baseline; a non-search row (lint, obs overhead) is only
   meaningful relative to the check it accompanies; a plain sequential
   check stands alone and carries no comparison at all. *)
type comparison =
  | Standalone
  | Speedup_vs_j1 of float  (** sequential row's wall / this wall *)
  | Ratio_vs_check of float  (** companion check's wall / this wall *)

type row = {
  name : string;
  wall_s : float;  (** total row wall: compile + reduction + search *)
  search_wall_s : float;  (** the search.product span alone *)
  impl_states : int;
  pairs : int;
  states_per_sec : float;
  verdict : string;
  comparison : comparison;
  extras : (string * float) list;
      (** row-family-specific numbers (the tracecheck rows carry
          events/s and streams/s here) rendered as extra JSON fields *)
}

(* states_per_sec comes from the engine, which measures the search span
   alone. Dividing by the total row wall instead would fold compile and
   reduction time into the rate and make it incomparable across
   reduction configs: a pass that spends 100 ms shrinking the graph to a
   few dozen states would report a "slower" engine than the raw run it
   beats. wall_s (the whole row) and search_wall_s (the span) are both
   recorded so either denominator can be recovered. *)
let row_of_result name result t ~comparison =
  let impl_states, pairs, search_wall_s, per_sec =
    match (result : Csp.Refine.result) with
    | Csp.Refine.Holds stats | Csp.Refine.Inconclusive (stats, _) ->
      ( stats.Csp.Refine.impl_states,
        stats.Csp.Refine.pairs,
        stats.Csp.Refine.wall_s,
        stats.Csp.Refine.states_per_sec )
    | Csp.Refine.Fails _ -> 0, 0, 0., 0.
  in
  let verdict =
    match result with
    | Csp.Refine.Holds _ -> "holds"
    | Csp.Refine.Fails _ -> "fails"
    | Csp.Refine.Inconclusive _ -> "inconclusive"
  in
  {
    name;
    wall_s = t;
    search_wall_s;
    impl_states;
    pairs;
    states_per_sec = per_sec;
    verdict;
    comparison;
    extras = [];
  }

(* S1's domain-scaling system: a VMG cycling through [k] request values
   and an ECU echoing each one, against the request/response property. *)
let echo_system k =
  let defs = Csp.Defs.create () in
  Csp.Defs.declare_channel defs "req" [ Csp.Ty.Int_range (0, k - 1) ];
  Csp.Defs.declare_channel defs "rsp" [ Csp.Ty.Int_range (0, k - 1) ];
  Csp.Defs.define_proc defs "ECU" []
    (Csp.Proc.prefix_items
       ( "req",
         [ Csp.Proc.In ("x", None) ],
         Csp.Proc.prefix "rsp" [ Csp.Expr.var "x" ] (Csp.Proc.call ("ECU", []))
       ));
  Csp.Defs.define_proc defs "VMG" [ "i" ]
    (Csp.Proc.prefix "req" [ Csp.Expr.var "i" ]
       (Csp.Proc.prefix_items
          ( "rsp",
            [ Csp.Proc.In ("y", None) ],
            Csp.Proc.call
              ( "VMG",
                [
                  Csp.Expr.Bin
                    ( Csp.Expr.Mod,
                      Csp.Expr.(var "i" + int 1),
                      Csp.Expr.int k );
                ] ) )));
  let spec =
    Security.Properties.request_response ~name:"SPEC" defs ~req:"req"
      ~resp:"rsp"
  in
  let impl =
    Csp.Proc.par
      ( Csp.Proc.call ("VMG", [ Csp.Expr.int 0 ]),
        Csp.Eventset.chans [ "req"; "rsp" ],
        Csp.Proc.call ("ECU", []) )
  in
  defs, spec, impl

(* The trace-containment rows: [tracecheck/ota-corpus] measures the
   corpus driver (NDJSON parse + frame mapping + cursors) on a generated
   adversarial OTA corpus, at j1 and j2; the numbers that matter are in
   "events_per_sec"/"streams_per_sec", not states/s. The cursor engine's
   own floor is a gate in [smoke.ml]. *)
let ota_trace_specs =
  "channel reqSw : {0..3}\n\
   channel rptSw : {0..7}\n\
   channel reqApp : {0..7}.{0..7}\n\
   channel rptUpd : {0..7}\n\
   secret = 5\n\
   mac(v) = (v + secret) % 8\n\
   ANY = reqSw?p -> ANY [] rptSw?v -> ANY [] reqApp?v?t -> ANY\n\
   \      [] rptUpd?v -> ANY\n\
   SPEC_ORDER = reqSw?p -> ANY\n\
   SPEC_WELLFORMED =\n\
   \  reqSw!1 -> SPEC_WELLFORMED\n\
   \  [] rptSw?v -> SPEC_WELLFORMED\n\
   \  [] ([] v : {0..7} @ reqApp!v!mac(v) -> SPEC_WELLFORMED)\n\
   \  [] rptUpd?v -> SPEC_WELLFORMED\n\
   pow2(n) = if n == 0 then 1 else 2 * pow2(n - 1)\n\
   bit(m, v) = (m / pow2(v)) % 2\n\
   grant(m, v) = if bit(m, v) == 1 then m else m + pow2(v)\n\
   AUTH(m) =\n\
   \  reqSw?p -> AUTH(m)\n\
   \  [] rptSw?v -> AUTH(m)\n\
   \  [] reqApp?v?t -> (if t == mac(v) then AUTH(grant(m, v)) else AUTH(m))\n\
   \  [] ([] v : {0..7} @ bit(m, v) == 1 & rptUpd!v -> AUTH(m))\n\
   SPEC_AUTH = AUTH(0)\n"

let tracecheck_rows rows =
  let record name wall ~events ~streams ~accepted ~events_per_sec ~comparison
      =
    let row =
      {
        name;
        wall_s = wall;
        search_wall_s = 0.;
        impl_states = 0;
        pairs = 0;
        states_per_sec = 0.;
        verdict = Printf.sprintf "%d/%d streams accepted" accepted streams;
        comparison;
        extras =
          [
            "events", float_of_int events;
            "events_per_sec", events_per_sec;
            ( "streams_per_sec",
              if wall > 0. then float_of_int streams /. wall else 0. );
          ];
      }
    in
    Format.printf "%-27s %9.2f ms %9d events %7d streams %12.0f ev/s  %s@."
      row.name (wall *. 1e3) events streams events_per_sec row.verdict;
    rows := row :: !rows;
    row
  in
  let corpus = Filename.temp_file "bench_corpus" ".ndjson" in
  ignore
    (Ota.Corpus.generate ~seed:42 ~streams:400 ~until_ms:400 ~flawed_rate:0.25
       ~path:corpus ());
  let loaded = Cspm.Elaborate.load_string ota_trace_specs in
  let map, requirements =
    match
      Serve.Trace_run.prepare ~script:loaded ~specs:[] ~dbc:None ~corpus ()
    with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  let corpus_base = ref None in
  List.iter
    (fun j ->
      Gc.compact ();
      let result, t =
        wall (fun () ->
            Serve.Trace_run.check_corpus ~workers:j ~map ~requirements
              ~path:corpus ())
      in
      let report =
        match result with Ok r -> r | Error msg -> failwith msg
      in
      let comparison =
        match !corpus_base with
        | None -> Standalone
        | Some base -> Speedup_vs_j1 (if t > 0. then base /. t else 0.)
      in
      let row =
        record
          (Printf.sprintf "tracecheck/ota-corpus/j%d" j)
          t ~events:report.Serve.Trace_run.events
          ~streams:report.Serve.Trace_run.streams
          ~accepted:report.Serve.Trace_run.streams_accepted
          ~events_per_sec:report.Serve.Trace_run.events_per_sec ~comparison
      in
      if !corpus_base = None then corpus_base := Some row.wall_s)
    [ 1; 2 ];
  Sys.remove corpus

(* The edit daemon's steady state: a resubmitted script whose component
   artifacts are all cached, against the same load and check with no
   cache. Each leg is what a daemon job does (parse, elaborate, check);
   the legs alternate, so host drift hits both alike, and each row reports
   its median of five. *)
let cache_rows rows =
  List.iter
    (fun n ->
      let src = Bench_scripts.components n in
      let run config =
        Cspm.Check.run ~config (Cspm.Elaborate.load_string src)
      in
      let cache = Csp.Cache.create () in
      let warm_config =
        Csp.Check_config.with_cache cache Csp.Check_config.default
      in
      ignore (run warm_config);
      Gc.compact ();
      let legs =
        List.init 5 (fun _ ->
            let outcomes, none =
              wall (fun () -> run Csp.Check_config.default)
            in
            let _, warm = wall (fun () -> run warm_config) in
            outcomes, none, warm)
      in
      let median xs =
        List.nth (List.sort Float.compare xs) (List.length xs / 2)
      in
      let none = median (List.map (fun (_, t, _) -> t) legs) in
      let warm = median (List.map (fun (_, _, t) -> t) legs) in
      let outcomes, _, _ = List.hd legs in
      let verdict =
        Printf.sprintf "%d/%d hold"
          (List.length
             (List.filter
                (fun o -> Csp.Refine.holds o.Cspm.Check.result)
                outcomes))
          (List.length outcomes)
      in
      let row name wall_s comparison =
        let row =
          {
            name;
            wall_s;
            search_wall_s = 0.;
            impl_states = 0;
            pairs = 0;
            states_per_sec = 0.;
            verdict;
            comparison;
            extras = [];
          }
        in
        Format.printf "%-27s %9.2f ms  %s@." row.name (row.wall_s *. 1e3)
          row.verdict;
        rows := row :: !rows
      in
      row (Printf.sprintf "cache/none/n%d" n) none Standalone;
      row
        (Printf.sprintf "cache/all-hits/n%d" n)
        warm
        (Ratio_vs_check (if warm > 0. then none /. warm else 0.)))
    [ 128; 512 ]

let run_rows () =
  let rows = ref [] in
  let record name f =
    (* return the heap to a known state before timing: without this a row
       that follows a large check (n12 leaves a multi-GB major heap) pays
       its predecessor's sweep and compaction inside the timed region *)
    Gc.compact ();
    let result, t = wall f in
    let row = row_of_result name result t ~comparison:Standalone in
    Format.printf "%-27s %9.2f ms %9d states %9d pairs %12.0f st/s  %s@."
      row.name (row.wall_s *. 1e3) row.impl_states row.pairs
      row.states_per_sec row.verdict;
    rows := row :: !rows;
    row
  in
  (* The NS family runs first: a check's first terms in a long-lived
     process pay the weak intern table's cleanup for whatever ran before
     it, so the case-study row would otherwise bill n12's multi-second
     sweep to a sub-100ms check. Front-running it matches how cspm_check
     runs it in practice — one check per process. *)
  let ns_base =
    record "ns/authentication-fixed" (fun () ->
        Security.Ns_protocol.check ~fixed:true ())
  in
  (* Lowe's attack on the broken protocol: a [Fails] under the default
     reductions, whose counterexample is re-derived on the unreduced
     graph the check compiled. Its cost beside the fixed row's [Holds] is
     what the fails-cost smoke gate bounds. *)
  ignore
    (record "ns/authentication-broken" (fun () ->
         Security.Ns_protocol.check ~fixed:false ()));
  (* Reduction ablation: the stock NS check under no reductions, each
     single pass, and the full default pipeline — the walk EXPERIMENTS.md
     steps through. The "none" row is the seed engine's number. *)
  List.iter
    (fun setting ->
      match Csp.Reduce.pipeline_of_string setting with
      | Error msg -> failwith msg
      | Ok pipeline ->
        ignore
          (record
             (Printf.sprintf "ablate/reductions/%s" setting)
             (fun () ->
               Security.Ns_protocol.check
                 ~config:
                   (Csp.Check_config.with_reductions pipeline
                      Security.Ns_protocol.default_config)
                 ~fixed:true ())))
    [ "none"; "dead"; "tau"; "bisim"; "default" ];
  (* The pre-check static analysis on the same model: the point of the row
     is the ratio — the lint must cost a vanishing fraction of the search
     it runs in front of. *)
  (let defs, _impl = Security.Ns_protocol.build ~fixed:true in
   let diags, t = wall (fun () -> Analysis.Cspm_analyze.analyze defs) in
   let ratio = if t > 0. then ns_base.wall_s /. t else 0. in
   let row =
     {
       name = "analysis/ns-cspm-lint";
       wall_s = t;
       search_wall_s = 0.;
       impl_states = 0;
       pairs = 0;
       states_per_sec = 0.;
       verdict = Printf.sprintf "%d diagnostics" (List.length diags);
       comparison = Ratio_vs_check ratio;
       extras = [];
     }
   in
   Format.printf "%-27s %9.2f ms  %s (%.0fx cheaper than the check)@."
     row.name (row.wall_s *. 1e3) row.verdict ratio;
   rows := row :: !rows);
  (* The implementation-level counterpart: the interprocedural CAPL
     dataflow lint (CFG construction, definite-assignment and interval
     fixpoints, and the taint pass) over the OTA case study's flawed
     firmware — the static check that catches the tag-skipping ECU the
     corpus check needs a fleet of traces to reject. *)
  (let nodes =
     List.map
       (fun (name, src) -> name, Capl.Parser.program src)
       Ota.Capl_sources.sources_flawed
   in
   let diags, t =
     wall (fun () ->
         Analysis.Valueflow.check_nodes nodes
         @ Analysis.Taint.check_nodes nodes)
   in
   let ratio = if t > 0. then ns_base.wall_s /. t else 0. in
   let row =
     {
       name = "analysis/ns-capl-dataflow";
       wall_s = t;
       search_wall_s = 0.;
       impl_states = 0;
       pairs = 0;
       states_per_sec = 0.;
       verdict = Printf.sprintf "%d diagnostics" (List.length diags);
       comparison = Ratio_vs_check ratio;
       extras = [];
     }
   in
   Format.printf "%-27s %9.2f ms  %s (%.0fx cheaper than the check)@."
     row.name (row.wall_s *. 1e3) row.verdict ratio;
   rows := row :: !rows);
  (* Instrumentation overhead: the same NS check with a live JSONL sink,
     measured immediately after the silent row (before the /jN reruns —
     domain thrash on a small host poisons whatever follows it). Its wall
     time against the silent row bounds the cost of the observability
     layer, and the span stream it writes is parsed back here — the
     consumer side of `cspm_check --trace-out`. *)
  let trace_path = Filename.temp_file "bench_trace" ".jsonl" in
  let oc = open_out trace_path in
  let obs = Obs.create (Obs.Jsonl oc) in
  Gc.compact ();
  let result, t =
    wall (fun () ->
        Security.Ns_protocol.check
          ~config:
            (Csp.Check_config.with_obs obs Security.Ns_protocol.default_config)
          ~fixed:true ())
  in
  Obs.flush obs;
  close_out oc;
  let speedup = if t > 0. then ns_base.wall_s /. t else 0. in
  let row =
    row_of_result "ns/authentication-fixed/obs-jsonl" result t
      ~comparison:(Ratio_vs_check speedup)
  in
  Format.printf
    "%-27s %9.2f ms %9d states %9d pairs %12.0f st/s  %s (%.2fx vs silent)@."
    row.name (row.wall_s *. 1e3) row.impl_states row.pairs row.states_per_sec
    row.verdict speedup;
  (* read the trace back: sum each span name's duration, as a tool
     consuming --trace-out output would *)
  let spans = Hashtbl.create 8 in
  let ic = open_in trace_path in
  (try
     while true do
       match Obs.Json.parse (input_line ic) with
       | Error _ -> ()
       | Ok json ->
         (match
            Obs.Json.(member "ev" json, member "name" json, member "dur_s" json)
          with
          | Some (Obs.Json.Str "span"), Some (Obs.Json.Str name), Some d ->
            let dur = Option.value (Obs.Json.to_float d) ~default:0. in
            let prev = Option.value (Hashtbl.find_opt spans name) ~default:0. in
            Hashtbl.replace spans name (prev +. dur)
          | _ -> ())
     done
   with End_of_file -> close_in ic);
  Sys.remove trace_path;
  List.iter
    (fun name ->
      match Hashtbl.find_opt spans name with
      | Some d -> Format.printf "    span %-16s %9.2f ms@." name (d *. 1e3)
      | None -> Format.printf "    span %-16s (absent)@." name)
    [ "reduce.compile_staged"; "normalise"; "search.product" ];
  rows := row :: !rows;
  (* before the scale family: n12 leaves a multi-GB heap and intern table
     behind, which would bill a millisecond-scale row for its upkeep *)
  cache_rows rows;
  List.iter
    (fun k ->
      let defs, spec, impl = echo_system k in
      ignore
        (record
           (Printf.sprintf "scale/domain/k%02d" k)
           (fun () -> Csp.Refine.traces_refines defs ~spec ~impl)))
    [ 2; 4; 8; 16; 32 ];
  List.iter
    (fun n ->
      let defs, spec, impl = Bench_scripts.multi_ecu_system n in
      ignore
        (record
           (Printf.sprintf "scale/ecus/n%d" n)
           (fun () -> Csp.Refine.traces_refines defs ~spec ~impl)))
    (* n8..n12 were out of reach for the raw engine (the monolithic
       compile re-combines the whole interleaving per state); the staged
       pipeline makes them routine. n14 and n16 became reachable once the
       specification was normalised on the fly: its full normal form has
       3^n nodes, the search reaches 2^n + 1 of them *)
    [ 2; 3; 4; 5; 8; 10; 12; 14; 16 ];
  tracecheck_rows rows;
  List.rev !rows

let json_of_rows rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"_meta\": { \"cores\": %d, \"parallel_rows_at\": [2] },\n"
       (Domain.recommended_domain_count ()));
  List.iteri
    (fun i row ->
      let comparison =
        match row.comparison with
        | Standalone -> ""
        | Speedup_vs_j1 s -> Printf.sprintf ", \"speedup_vs_j1\": %.3f" s
        | Ratio_vs_check r -> Printf.sprintf ", \"ratio_vs_check\": %.3f" r
      in
      let comparison =
        comparison
        ^ String.concat ""
            (List.map
               (fun (k, v) -> Printf.sprintf ", %S: %.1f" k v)
               row.extras)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %S: { \"wall_s\": %.6f, \"search_wall_s\": %.6f, \
            \"impl_states\": %d, \"pairs\": %d, \"states_per_sec\": %.0f, \
            \"verdict\": %S%s }%s\n"
           row.name row.wall_s row.search_wall_s row.impl_states row.pairs
           row.states_per_sec row.verdict comparison
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_csp.json" in
  let rows = run_rows () in
  let oc = open_out out in
  output_string oc (json_of_rows rows);
  close_out oc;
  Format.printf "@.wrote %s (%d checks)@." out (List.length rows)
