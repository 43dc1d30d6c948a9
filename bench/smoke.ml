(* Smoke bench: a seconds-scale end-to-end pass over the robustness
   features, wired into `dune runtest`. It is a health check, not a
   measurement — it exercises fault injection on the demo network, the
   budgeted refinement engine with a deliberately tiny budget, the JSON
   output schema, and the observability stream, and fails loudly if any
   of them regresses. *)

let fail fmt = Format.kasprintf (fun m -> prerr_endline m; exit 1) fmt

let check_fault_injection () =
  let sim = Ota.Capl_sources.simulation () in
  let plan = Canbus.Fault.plan ~seed:42 ~drop:0.1 () in
  let fault = Canbus.Fault.install (Capl.Simulation.bus sim) plan in
  Capl.Simulation.start sim;
  ignore (Capl.Simulation.run ~until_ms:200 sim);
  let stats = Canbus.Fault.stats fault in
  if stats.Canbus.Fault.drops = 0 then
    fail "fault smoke: a 10%% drop plan injected nothing";
  let log = Capl.Simulation.log sim in
  if Canbus.Trace_log.faults log = [] then
    fail "fault smoke: no Fault entries reached the trace log";
  Format.printf "fault injection: %d drops, %d retransmissions, %d log entries@."
    stats.Canbus.Fault.drops stats.Canbus.Fault.retransmissions
    (Canbus.Trace_log.length log)

let check_budgeted_engine () =
  (* a tiny wall-clock budget on the stock large check must degrade to an
     inconclusive verdict with real progress, never an exception *)
  let config =
    Csp.Check_config.with_deadline 0.001 Security.Ns_protocol.default_config
  in
  match Security.Ns_protocol.check ~config ~fixed:true () with
  | Csp.Refine.Inconclusive (stats, hint) ->
    if
      stats.Csp.Refine.impl_states = 0
      && stats.Csp.Refine.spec_nodes = 0
      && stats.Csp.Refine.pairs = 0
    then fail "budget smoke: inconclusive verdict carries no progress";
    Format.printf "budgeted engine: INCONCLUSIVE after %a@."
      Csp.Refine.pp_resume_hint hint
  | Csp.Refine.Holds _ ->
    fail "budget smoke: 1 ms unexpectedly completed the NS check"
  | Csp.Refine.Fails _ -> fail "budget smoke: fixed NS must not fail"

let check_lazy_spec () =
  (* the specification is normalised on the fly: of the n = 12 system's
     531,442 normal-form nodes, the search reaches 4,097 and builds about
     as many *)
  let defs, spec, impl = Bench_scripts.multi_ecu_system 12 in
  match Csp.Refine.traces_refines defs ~spec ~impl with
  | Csp.Refine.Holds s when s.Csp.Refine.spec_nodes <= 4200 ->
    Format.printf "lazy spec: n12 holds, %d spec nodes reached@."
      s.Csp.Refine.spec_nodes
  | Csp.Refine.Holds s ->
    fail "lazy spec smoke: n12 reached %d spec nodes (at most 4200)"
      s.Csp.Refine.spec_nodes
  | Csp.Refine.Fails _ | Csp.Refine.Inconclusive _ ->
    fail "lazy spec smoke: the n12 ecu system must hold"

let check_reduction_speedup () =
  (* the default reduction pipeline must never make the stock NS check
     slower than the raw engine it replaces — the tentpole's one-line
     contract. The raw run takes seconds and the reduced one tens of
     milliseconds, so a plain comparison has miles of margin. *)
  let time config =
    let t0 = Obs.now () in
    (match Security.Ns_protocol.check ~config ~fixed:true () with
     | Csp.Refine.Holds _ -> ()
     | Csp.Refine.Fails _ -> fail "reduction smoke: fixed NS must not fail"
     | Csp.Refine.Inconclusive _ ->
       fail "reduction smoke: unbudgeted NS came back inconclusive");
    Obs.now () -. t0
  in
  let raw =
    time
      Csp.Check_config.(
        Security.Ns_protocol.default_config |> with_reductions [])
  in
  let reduced = time Security.Ns_protocol.default_config in
  if reduced > raw then
    fail
      "reduction smoke: the default pipeline made NS slower (%.0f ms \
       reduced vs %.0f ms raw)"
      (reduced *. 1e3) (raw *. 1e3);
  Format.printf "reductions: NS %.0f ms raw -> %.0f ms reduced@."
    (raw *. 1e3) (reduced *. 1e3)

let check_fails_cost () =
  (* a [Fails] pays for its counterexample with one more search over the
     graph the check already compiled, so Lowe's attack on the broken
     protocol must cost at most twice the fixed protocol's [Holds] —
     both under the default reductions. Legs alternate and are timed in
     process CPU time, the min of three each, as in the all-hits gate. *)
  let timed ~fixed =
    let t0 = Sys.time () in
    (match Security.Ns_protocol.check ~fixed () with
     | Csp.Refine.Holds _ when fixed -> ()
     | Csp.Refine.Fails _ when not fixed -> ()
     | r ->
       fail "fails-cost smoke: NS fixed:%b came back %a" fixed
         Csp.Refine.pp_result r);
    Sys.time () -. t0
  in
  let holds = ref infinity and fails = ref infinity in
  for _ = 1 to 3 do
    holds := Float.min !holds (timed ~fixed:true);
    fails := Float.min !fails (timed ~fixed:false)
  done;
  if !fails > 2. *. !holds then
    fail
      "fails-cost smoke: the broken NS check took %.0f ms, over 2x the \
       %.0f ms of the fixed one"
      (!fails *. 1e3) (!holds *. 1e3);
  Format.printf "fails cost: NS %.0f ms fixed (holds) vs %.0f ms broken \
                 (fails), %.2fx@."
    (!holds *. 1e3) (!fails *. 1e3) (!fails /. !holds)

let digest result =
  match result with
  | Csp.Refine.Holds s ->
    Printf.sprintf "holds/%d/%d/%d" s.Csp.Refine.impl_states
      s.Csp.Refine.spec_nodes s.Csp.Refine.pairs
  | Csp.Refine.Fails cex ->
    Format.asprintf "fails/%a" Csp.Refine.pp_counterexample cex
  | Csp.Refine.Inconclusive (s, _) ->
    Printf.sprintf "inconclusive/%d/%d/%d" s.Csp.Refine.impl_states
      s.Csp.Refine.spec_nodes s.Csp.Refine.pairs

let check_cache_warm_speedup () =
  (* the LTS cache's one-line contract: re-checking an unchanged model
     against a warm cache skips compile/normalise/reduce and lands on a
     stored graph, so it must be far faster than the cold run — and the
     verdict digest must be identical, cold, warm, and cache-free. The
     cold NS run spends ~100 ms in the pipeline and the warm one only
     searches a 3-state product, so a 5x floor has miles of margin. *)
  (* the model is built once, outside the timed region: elaboration cost
     is identical on both legs and is not what the cache removes *)
  let defs, impl = Security.Ns_protocol.build ~fixed:true in
  let spec = Security.Ns_protocol.authentication_spec defs in
  let uncached =
    digest
      (Csp.Refine.traces_refines ~config:Security.Ns_protocol.default_config
         defs ~spec ~impl)
  in
  let cache = Csp.Cache.create () in
  let config =
    Csp.Check_config.with_cache cache Security.Ns_protocol.default_config
  in
  let time () =
    let t0 = Obs.now () in
    let d = digest (Csp.Refine.traces_refines ~config defs ~spec ~impl) in
    d, Obs.now () -. t0
  in
  let cold_digest, cold = time () in
  let warm_digest, warm = time () in
  if not (String.equal uncached cold_digest && String.equal uncached warm_digest)
  then
    fail "cache smoke: verdicts diverged:\n  off:  %s\n  cold: %s\n  warm: %s"
      uncached cold_digest warm_digest;
  let s = Csp.Cache.stats cache in
  if s.Csp.Cache.hits = 0 then
    fail "cache smoke: the warm re-check never hit the cache";
  if warm *. 5. > cold then
    fail "cache smoke: warm re-check is not 5x faster (%.1f ms cold, %.1f ms \
          warm)"
      (cold *. 1e3) (warm *. 1e3);
  Format.printf "cache: NS %.1f ms cold -> %.1f ms warm (%d hits)@."
    (cold *. 1e3) (warm *. 1e3) s.Csp.Cache.hits

let check_cache_all_hits () =
  (* the daemon's steady state: a resubmitted script whose every component
     artifact is already cached. Each leg loads the script (parse and
     elaborate) and checks it, as a daemon job does; the warm leg must
     beat the cache-free one by a clear margin, or deriving keys costs
     more than the compilation it saves. Legs alternate, so host drift
     hits both alike, and are timed in process CPU time: this gate runs
     beside the test suite, and a leg the scheduler parks must not count
     the wait. *)
  let src = Bench_scripts.components 128 in
  let run config =
    let loaded = Cspm.Elaborate.load_string src in
    String.concat "\n"
      (List.map
         (fun o -> digest o.Cspm.Check.result)
         (Cspm.Check.run ~config loaded))
  in
  let cache = Csp.Cache.create () in
  let cached = Csp.Check_config.with_cache cache Csp.Check_config.default in
  let expected = run cached in
  let cold = Csp.Cache.stats cache in
  let timed config =
    let t0 = Sys.time () in
    let d = run config in
    let t = Sys.time () -. t0 in
    if not (String.equal d expected) then
      fail "all-hits smoke: a verdict diverged from the cold run";
    t
  in
  let warm = ref infinity and uncached = ref infinity in
  for _ = 1 to 3 do
    uncached := Float.min !uncached (timed Csp.Check_config.default);
    warm := Float.min !warm (timed cached)
  done;
  let s = Csp.Cache.stats cache in
  if s.Csp.Cache.misses <> cold.Csp.Cache.misses then
    fail "all-hits smoke: %d warm lookups missed"
      (s.Csp.Cache.misses - cold.Csp.Cache.misses);
  if !warm > 0.75 *. !uncached then
    fail
      "all-hits smoke: a warm re-check of 128 components took %.1f ms, \
       over 0.75x the %.1f ms of an uncached one"
      (!warm *. 1e3) (!uncached *. 1e3);
  Format.printf "all-hits: 128 components %.1f ms warm vs %.1f ms uncached@."
    (!warm *. 1e3) (!uncached *. 1e3)

let check_memo_edit () =
  (* the daemon's edit loop: a memo that holds the script before a
     one-component edit. A warm memoised load parses that component
     alone, so it must beat a load without the memo by a clear margin,
     and load the same script. Each round edits another component; legs
     alternate and are timed in process CPU time, the min of three each,
     as in the all-hits gate. *)
  let src = Bench_scripts.components 128 in
  let edit i =
    String.split_on_char '\n' src
    |> List.map (fun line ->
           if line = Printf.sprintf "E%d = q%d?x -> r%d!x -> E%d" i i i i then
             Printf.sprintf "E%d = q%d?x -> H%d(x)\nH%d(x) = r%d!x -> E%d" i i
               i i i i
           else line)
    |> String.concat "\n"
  in
  let memo = Cspm.Elaborate.Memo.create () in
  (* Each leg starts from a collected heap: the whole parse's token
     array goes straight to the major heap, and its debt would otherwise
     be paid in the memoised leg after it. *)
  let timed ?memo script =
    Gc.full_major ();
    let t0 = Sys.time () in
    let loaded = Cspm.Elaborate.load_string ?memo script in
    (Sys.time () -. t0, loaded)
  in
  let shape (l : Cspm.Elaborate.t) =
    (l.Cspm.Elaborate.assertions, l.Cspm.Elaborate.positions)
  in
  let whole = ref infinity and memoised = ref infinity in
  for i = 1 to 3 do
    let script = edit (i * 40) in
    ignore (Cspm.Elaborate.load_string ~memo src);
    let t_whole, expected = timed script in
    let t_memo, loaded = timed ~memo script in
    if shape loaded <> shape expected then
      fail "memo smoke: a memoised load differs from the whole parse's";
    whole := Float.min !whole t_whole;
    memoised := Float.min !memoised t_memo
  done;
  if !memoised > 0.58 *. !whole then
    fail
      "memo smoke: a warm memoised load of 128 components after a \
       one-component edit took %.2f ms, over 0.58x the %.2f ms of a load \
       without the memo"
      (!memoised *. 1e3) (!whole *. 1e3);
  Format.printf "memo: 128 components %.2f ms memoised vs %.2f ms whole@."
    (!memoised *. 1e3) (!whole *. 1e3)

(* A small CSPm script with one passing, one failing, and (under a 1-pair
   budget elsewhere) potentially inconclusive assertion — enough to
   exercise every verdict arm of the JSON schema. *)
let json_script =
  "channel a : {0..1}\n\
   SPEC = a!0 -> SPEC\n\
   IMPL = a!0 -> IMPL\n\
   WILD = a!0 -> a!1 -> WILD\n\
   assert SPEC [T= IMPL\n\
   assert SPEC [T= WILD"

let check_json_output () =
  (* the machine-readable document must parse back and agree with the
     pretty-printer's counts — the schema is a contract, not a dump *)
  let outcomes = Cspm.Check.run (Cspm.Elaborate.load_string json_script) in
  let doc = Obs.Json.to_string (Cspm.Check.json_of_outcomes outcomes) in
  let json =
    match Obs.Json.parse doc with
    | Ok j -> j
    | Error msg -> fail "json smoke: emitted document does not parse: %s" msg
  in
  let member name j =
    match Obs.Json.member name j with
    | Some v -> v
    | None -> fail "json smoke: missing member %S" name
  in
  let to_int j =
    match Obs.Json.to_int j with
    | Some n -> n
    | None -> fail "json smoke: expected an integer"
  in
  (match Obs.Json.to_str (member "schema" json) with
   | Some "cspm-check/1" -> ()
   | _ -> fail "json smoke: schema tag is not cspm-check/1");
  let summary = member "summary" json in
  let total = to_int (member "total" summary) in
  let passed = to_int (member "passed" summary) in
  let failed = to_int (member "failed" summary) in
  let inconclusive = to_int (member "inconclusive" summary) in
  let count p = List.length (List.filter p outcomes) in
  let pretty_failed =
    count (fun o ->
        match o.Cspm.Check.result with Csp.Refine.Fails _ -> true | _ -> false)
  in
  let pretty_inconclusive =
    count (fun o -> Csp.Refine.inconclusive o.Cspm.Check.result)
  in
  if total <> List.length outcomes then
    fail "json smoke: summary.total %d <> %d outcomes" total
      (List.length outcomes);
  if failed <> pretty_failed || inconclusive <> pretty_inconclusive then
    fail "json smoke: summary (%d failed, %d inconclusive) disagrees with \
          pretty counts (%d, %d)"
      failed inconclusive pretty_failed pretty_inconclusive;
  if passed + failed + inconclusive <> total then
    fail "json smoke: summary does not partition the assertions";
  (match Obs.Json.member "assertions" json with
   | Some (Obs.Json.List l) when List.length l = total -> ()
   | _ -> fail "json smoke: assertions array missing or wrong length");
  Format.printf "json output: %d assertions, %d failed — schema ok@." total
    failed

(* A script with known lint findings: the diagnostics/1 document behind
   `cspm_check --lint --format json` must parse back, carry its schema
   tag, and have a summary that partitions the diagnostics — and the CAPL
   lint must produce the same document shape. *)
let check_lint_schema () =
  let member name j =
    match Obs.Json.member name j with
    | Some v -> v
    | None -> fail "lint smoke: missing member %S" name
  in
  let to_int j =
    match Obs.Json.to_int j with
    | Some n -> n
    | None -> fail "lint smoke: expected an integer"
  in
  let validate label diags =
    let doc = Obs.Json.to_string (Analysis.Diag.json_of_list diags) in
    let json =
      match Obs.Json.parse doc with
      | Ok j -> j
      | Error msg -> fail "lint smoke: %s document does not parse: %s" label msg
    in
    (match Obs.Json.to_str (member "schema" json) with
     | Some "diagnostics/1" -> ()
     | _ -> fail "lint smoke: %s schema tag is not diagnostics/1" label);
    let listed =
      match member "diagnostics" json with
      | Obs.Json.List l -> l
      | _ -> fail "lint smoke: %s diagnostics is not an array" label
    in
    if List.length listed <> List.length diags then
      fail "lint smoke: %s array length %d <> %d diagnostics" label
        (List.length listed) (List.length diags);
    List.iter
      (fun d ->
        List.iter
          (fun field ->
            match Obs.Json.member field d with
            | Some (Obs.Json.Str _) -> ()
            | _ ->
              fail "lint smoke: %s diagnostic lacks string field %S" label
                field)
          [ "code"; "severity"; "message" ])
      listed;
    let summary = member "summary" json in
    let total = to_int (member "total" summary) in
    let parts =
      to_int (member "errors" summary)
      + to_int (member "warnings" summary)
      + to_int (member "infos" summary)
    in
    if total <> List.length diags || parts <> total then
      fail "lint smoke: %s summary does not partition (%d of %d)" label parts
        total;
    total
  in
  let cspm_diags =
    Analysis.Cspm_analyze.analyze_loaded ~file:"smoke.csp"
      (Cspm.Elaborate.load_string
         "channel a : {0..1}\n\
          channel ghost : {0..1}\n\
          P = P [] a!0 -> P\n\
          assert P :[deadlock free]\n")
  in
  if cspm_diags = [] then fail "lint smoke: CSPm fixture produced nothing";
  let cspm_total = validate "cspm" cspm_diags in
  let capl_diags =
    Analysis.Capl_lint.lint
      ~db:(Candb.To_capl.msgdb (Candb.Dbc_parser.parse Ota.Capl_sources.dbc))
      ~name:"smoke"
      (Capl.Parser.program
         "variables { message Bogus m; timer tick; }\n\
          on start { setTimer(tick, 5); }\n")
  in
  if capl_diags = [] then fail "lint smoke: CAPL fixture produced nothing";
  let capl_total = validate "capl" capl_diags in
  Format.printf "lint schema: %d cspm + %d capl diagnostics — schema ok@."
    cspm_total capl_total

let check_dataflow_lint () =
  (* The interprocedural dataflow lint must catch the tag-skipping ECU
     (CAPL102 on the flawed firmware), stay silent on the conformant
     one, and cost static-analysis money, not model-checking money. *)
  let parse srcs =
    List.map (fun (name, src) -> name, Capl.Parser.program src) srcs
  in
  let flawed = parse Ota.Capl_sources.sources_flawed
  and fixed = parse Ota.Capl_sources.sources in
  let t0 = Obs.now () in
  let flawed_diags = Analysis.Capl_lint.lint_nodes flawed in
  let fixed_diags = Analysis.Capl_lint.lint_nodes fixed in
  let wall_ms = (Obs.now () -. t0) *. 1e3 in
  let with_code code ds =
    List.filter (fun d -> d.Analysis.Diag.code = code) ds
  in
  if with_code "CAPL102" flawed_diags = [] then
    fail "dataflow smoke: the tag-skipping ECU drew no CAPL102";
  let taint =
    with_code "CAPL101" fixed_diags @ with_code "CAPL102" fixed_diags
  in
  if taint <> [] then
    fail "dataflow smoke: conformant firmware drew %d taint diagnostic(s)"
      (List.length taint);
  if wall_ms >= 50. then
    fail "dataflow smoke: linting both firmwares took %.1f ms (budget 50)"
      wall_ms;
  Format.printf
    "dataflow lint: flawed firmware flagged, fixed clean, %.1f ms@." wall_ms

let check_trace_stream () =
  (* the observability stream must (a) not change the verdict and (b) be
     line-by-line parseable JSON containing the pipeline spans *)
  let silent = digest (Security.Ns_protocol.check ~fixed:false ()) in
  let path = Filename.temp_file "smoke_trace" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.create (Obs.Jsonl oc) in
  let config = Csp.Check_config.with_obs obs Security.Ns_protocol.default_config in
  let traced = digest (Security.Ns_protocol.check ~config ~fixed:false ()) in
  Obs.flush obs;
  close_out oc;
  if not (String.equal silent traced) then
    fail "trace smoke: verdict changed under the JSONL sink:\n  %s\n  %s"
      silent traced;
  let ic = open_in path in
  let spans = ref [] and lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Obs.Json.parse line with
       | Error msg -> fail "trace smoke: line %d is not JSON: %s" !lines msg
       | Ok json ->
         (match Obs.Json.(member "ev" json, member "name" json) with
          | Some (Obs.Json.Str "span"), Some (Obs.Json.Str name) ->
            spans := name :: !spans
          | _ -> ())
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  if !lines = 0 then fail "trace smoke: the JSONL stream is empty";
  List.iter
    (fun required ->
      if not (List.mem required !spans) then
        fail "trace smoke: no %S span in the stream" required)
    [ "reduce.compile_staged"; "normalise"; "search.product" ];
  Format.printf "trace stream: %d lines, %d spans — parseable@." !lines
    (List.length !spans)

(* Three interleaved mod-16 counters: 4096 implementation states, so the
   engine's 256-commit poll cadence fires many times — interruptible by
   cancellation token or a micro-deadline, unlike the tiny NS model. *)
let counter_script =
  "channel x : {0..15}\n\
   channel y : {0..15}\n\
   channel z : {0..15}\n\
   P(n) = x!n -> P((n+1)%16)\n\
   Q(n) = y!n -> Q((n+3)%16)\n\
   R(n) = z!n -> R((n+5)%16)\n\
   SYS = P(0) ||| Q(0) ||| R(0)\n\
   SPEC = x?v -> SPEC [] y?v -> SPEC [] z?v -> SPEC\n\
   assert SPEC [T= SYS\n"

let check_checkpoint_resume () =
  (* interrupt mid-search via the cancellation token, round-trip the
     checkpoint through its wire format, resume: the verdict must be the
     uninterrupted one *)
  let loaded = Cspm.Elaborate.load_string counter_script in
  (* reductions off throughout this leg: the subject is the interrupt
     machinery, and the default pipeline collapses counter_script's
     accept-everything spec below the poll cadence *)
  let raw = Csp.Check_config.(default |> with_reductions []) in
  let baseline =
    List.map
      (fun o -> digest o.Cspm.Check.result)
      (Cspm.Check.run ~config:raw loaded)
  in
  let polls = ref 0 in
  let config =
    Csp.Check_config.(
      raw
      |> with_cancel (fun () ->
             incr polls;
             !polls >= 2))
  in
  let _, stop = Cspm.Check.run_seq ~config loaded in
  match stop with
  | None -> fail "checkpoint smoke: the cancellation token never bit"
  | Some s ->
    let cp =
      match s.Cspm.Check.search with
      | Some cp -> cp
      | None -> fail "checkpoint smoke: interrupt left no engine checkpoint"
    in
    let cp =
      let encoded = Obs.Json.to_string (Csp.Search.json_of_checkpoint cp) in
      match Obs.Json.parse encoded with
      | Error msg -> fail "checkpoint smoke: does not re-parse: %s" msg
      | Ok json -> (
        match Csp.Search.checkpoint_of_json json with
        | Ok cp -> cp
        | Error msg -> fail "checkpoint smoke: does not round-trip: %s" msg)
    in
    let resumed, stop' =
      Cspm.Check.run_seq
        ~from:{ s with Cspm.Check.search = Some cp }
        ~config:raw loaded
    in
    if stop' <> None then fail "checkpoint smoke: the resume was interrupted";
    let final = List.map (fun o -> digest o.Cspm.Check.result) resumed in
    if final <> baseline then
      fail "checkpoint smoke: resumed verdicts diverged:\n  base: %s\n  res:  %s"
        (String.concat "; " baseline) (String.concat "; " final);
    Format.printf "checkpoint resume: interrupted then resumed -> %s@."
      (String.concat "; " final)

(* One accept-everything requirement over the demo network's channels:
   enough to drive the trace-check path end to end without depending on
   the fault draw. *)
let trace_spec_script =
  "channel reqSw : {0..3}\n\
   channel rptSw : {0..7}\n\
   channel reqApp : {0..7}.{0..7}\n\
   channel rptUpd : {0..7}\n\
   SPEC_ANY = reqSw?p -> SPEC_ANY [] rptSw?v -> SPEC_ANY\n\
   \  [] reqApp?v?t -> SPEC_ANY [] rptUpd?v -> SPEC_ANY\n"

let check_tracecheck_throughput () =
  (* the streaming engine's floor: single-domain trace containment on
     the NS authentication spec must clear 100k events/s — a step is one
     hashtable probe, so missing this means the engine regressed by
     orders of magnitude, not that the host is slow *)
  let defs, _impl = Security.Ns_protocol.build ~fixed:true in
  let spec = Security.Ns_protocol.authentication_spec defs in
  let checker =
    match Csp.Tracecheck.compile defs spec with
    | Ok c -> c
    | Error msg -> fail "tracecheck smoke: compile failed: %s" msg
  in
  (* synthesize valid streams by walking the spec's own normal form, so
     every verdict must come back Accepted *)
  let norm = Csp.Normalise.of_term defs spec in
  let visible =
    Array.init
      (Csp.Normalise.num_nodes (Csp.Normalise.form norm))
      (fun i ->
        List.filter
          (fun (l, _) -> match l with Csp.Event.Vis _ -> true | _ -> false)
          (Csp.Normalise.afters norm i))
  in
  let stream i len =
    let labels = ref [] in
    let node = ref (Csp.Normalise.initial norm) in
    (try
       for k = 0 to len - 1 do
         match visible.(!node) with
         | [] -> raise Exit
         | choices ->
           let l, next = List.nth choices ((i + k) mod List.length choices) in
           labels := l :: !labels;
           node := next
       done
     with Exit -> ());
    Array.of_list (List.rev !labels)
  in
  let streams = Array.init 200 (fun i -> stream i 1000) in
  let t0 = Obs.now () in
  let cursors =
    Array.map
      (Array.fold_left (Csp.Tracecheck.step checker)
         (Csp.Tracecheck.start checker))
      streams
  in
  let wall_s = Obs.now () -. t0 in
  let events =
    Array.fold_left (fun n c -> n + Csp.Tracecheck.consumed c) 0 cursors
  in
  let rejected =
    Array.fold_left
      (fun n c ->
        match Csp.Tracecheck.verdict c with
        | Csp.Tracecheck.Accepted -> n
        | Csp.Tracecheck.Rejected _ -> n + 1)
      0 cursors
  in
  let events_per_sec =
    if wall_s > 0. then float_of_int events /. wall_s else 0.
  in
  if rejected > 0 then
    fail "tracecheck smoke: %d synthesized spec traces were rejected" rejected;
  if events < 10_000 then
    fail "tracecheck smoke: synthesizer produced only %d events" events;
  if events_per_sec < 100_000. then
    fail "tracecheck smoke: %.0f events/s is below the 100k floor"
      events_per_sec;
  Format.printf "tracecheck engine: %d events, %d streams, %.2fM events/s@."
    events (Array.length streams) (events_per_sec /. 1e6)

let check_trace_schemas () =
  (* can-trace/1 and trace-check/1 are contracts: a generated corpus must
     read back with its header intact and zero malformed lines, and the
     report document must carry its schema tag, its counts, and be
     byte-stable across runs (timing fields aside) *)
  let path = Filename.temp_file "smoke_corpus" ".ndjson" in
  ignore (Ota.Corpus.generate ~seed:5 ~streams:8 ~until_ms:150 ~path ());
  (match Serve.Trace_io.read_header ~path with
   | Ok h when h.Serve.Trace_io.generator = Some Ota.Corpus.generator_name ->
     ()
   | Ok _ -> fail "trace schema smoke: corpus header lost its generator"
   | Error msg -> fail "trace schema smoke: corpus header: %s" msg);
  let loaded = Cspm.Elaborate.load_string trace_spec_script in
  let map, requirements =
    match
      Serve.Trace_run.prepare ~script:loaded ~specs:[] ~dbc:None ~corpus:path
        ()
    with
    | Ok v -> v
    | Error msg -> fail "trace schema smoke: prepare: %s" msg
  in
  let run () =
    match Serve.Trace_run.check_corpus ~map ~requirements ~path () with
    | Ok r -> r
    | Error msg -> fail "trace schema smoke: check_corpus: %s" msg
  in
  let report = run () in
  if report.Serve.Trace_run.malformed > 0 then
    fail "trace schema smoke: %d malformed lines in a fresh corpus"
      report.Serve.Trace_run.malformed;
  if not (Serve.Trace_run.passed report) then
    fail "trace schema smoke: SPEC_ANY rejected a generated stream";
  let doc = Obs.Json.to_string (Serve.Trace_run.json_of_report report) in
  let json =
    match Obs.Json.parse doc with
    | Ok j -> j
    | Error msg -> fail "trace schema smoke: report does not parse: %s" msg
  in
  (match Obs.Json.to_str (Option.get (Obs.Json.member "schema" json)) with
   | Some "trace-check/1" -> ()
   | _ -> fail "trace schema smoke: schema tag is not trace-check/1");
  List.iter
    (fun field ->
      match Option.bind (Obs.Json.member field json) Obs.Json.to_int with
      | Some _ -> ()
      | None -> fail "trace schema smoke: report lacks integer field %S" field)
    [
      "streams"; "streams_accepted"; "streams_rejected"; "entries"; "events";
      "skipped"; "faults"; "malformed";
    ];
  (match Obs.Json.member "requirements" json with
   | Some (Obs.Json.List l) when List.length l = List.length requirements -> ()
   | _ -> fail "trace schema smoke: requirements array missing or wrong size");
  let stable r = Obs.Json.to_string (Serve.Trace_run.json_of_report ~timing:false r) in
  if not (String.equal (stable report) (stable (run ()))) then
    fail "trace schema smoke: two identical runs produced different documents";
  Sys.remove path;
  Format.printf
    "trace schemas: %d entries -> %d events, report stable — schema ok@."
    report.Serve.Trace_run.entries report.Serve.Trace_run.events

let check_line_decode_allocation () =
  (* The can-trace/1 decoder's budget, in words allocated per line:
     allocation counts repeat exactly where timings drift by tens of
     percent between runs on one host. Counting over at least 2M words
     (several passes over the corpus) keeps a coarse-grained minor-word
     counter from moving the per-line figure by more than a few
     percent. *)
  let path = Filename.temp_file "smoke_alloc" ".ndjson" in
  ignore (Ota.Corpus.generate ~seed:9 ~streams:20 ~until_ms:200 ~path ());
  let lines =
    match
      Serve.Trace_io.fold_lines ~path ~init:[] (fun acc ~line_no:_ raw ->
          raw :: acc)
    with
    | Ok (lines, _) -> Array.of_list lines
    | Error msg -> fail "decode allocation smoke: %s" msg
  in
  Sys.remove path;
  Gc.minor ();
  let before = Gc.minor_words () in
  let decoded = ref 0 in
  while Gc.minor_words () -. before < 2e6 do
    Array.iter
      (fun raw ->
        ignore (Sys.opaque_identity (Serve.Trace_io.parse_line raw)))
      lines;
    decoded := !decoded + Array.length lines
  done;
  let per_line = (Gc.minor_words () -. before) /. float_of_int !decoded in
  if per_line > 200. then
    fail "decode allocation smoke: %.0f words per line (budget 200)" per_line;
  Format.printf "line decode: %.0f words per can-trace/1 line over %d lines@."
    per_line !decoded

let check_daemon () =
  (* the supervised runner end to end: a passing job, a failing job, and
     a job whose first deadline is far below one poll interval — it must
     retry with backoff, resume from its checkpoint, and still reach the
     uninterrupted verdict; the drain must be clean *)
  let events = ref [] in
  let cfg =
    {
      (Serve.Runner.default_config ~emit:(fun j -> events := j :: !events)) with
      Serve.Runner.backoff_base_s = 0.005;
      backoff_max_s = 0.02;
    }
  in
  let t = Serve.Runner.create cfg in
  let job ?deadline_s ?max_retries ?reductions id script =
    {
      Serve.Protocol.id;
      source = Serve.Protocol.Inline script;
      kind = Serve.Protocol.Check;
      version = Serve.Protocol.V2;
      deadline_s;
      workers = 1;
      max_states = None;
      max_retries;
      reductions;
      lint = false;
      deny_warnings = false;
    }
  in
  Serve.Runner.submit t
    (job "ok" "channel a : {0..1}\nP = a!0 -> P\nassert P [T= P\n");
  Serve.Runner.submit t (job "bad" json_script);
  Serve.Runner.submit t
    (job ~deadline_s:1e-5 ~max_retries:30 ~reductions:"none" "slow"
       counter_script);
  (* a trace-check job rides the same queue: generate a tiny corpus and
     let the kind dispatch route it through Trace_run *)
  let corpus_path = Filename.temp_file "smoke_corpus" ".ndjson" in
  ignore
    (Ota.Corpus.generate ~seed:5 ~streams:6 ~until_ms:150 ~path:corpus_path ());
  Serve.Runner.submit t
    {
      (job "trace" trace_spec_script) with
      Serve.Protocol.kind =
        Serve.Protocol.Trace_check
          { corpus = corpus_path; specs = []; dbc = None };
    };
  Serve.Runner.drain t;
  Sys.remove corpus_path;
  let evs = List.rev !events in
  let name j =
    match Obs.Json.member "event" j with
    | Some (Obs.Json.Str s) -> s
    | _ -> "?"
  in
  let str k j =
    match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None
  in
  let verdicts id =
    match
      List.find_opt (fun e -> name e = "result" && str "id" e = Some id) evs
    with
    | None -> fail "daemon smoke: no result event for job %S" id
    | Some r -> (
      match
        Option.bind (Obs.Json.member "report" r) (Obs.Json.member "assertions")
      with
      | Some (Obs.Json.List l) ->
        List.map (fun a -> Option.value (str "verdict" a) ~default:"?") l
      | _ -> fail "daemon smoke: job %S has no assertions array" id)
  in
  if verdicts "ok" <> [ "pass" ] then
    fail "daemon smoke: job ok should pass, got %s"
      (String.concat "," (verdicts "ok"));
  if verdicts "bad" <> [ "pass"; "fail" ] then
    fail "daemon smoke: job bad should go pass,fail, got %s"
      (String.concat "," (verdicts "bad"));
  if verdicts "slow" <> [ "pass" ] then
    fail "daemon smoke: the resumed job should reach pass, got %s"
      (String.concat "," (verdicts "slow"));
  (* the trace-check result carries stream verdict counts, not assertions *)
  (match
     List.find_opt (fun e -> name e = "result" && str "id" e = Some "trace") evs
   with
   | None -> fail "daemon smoke: no result event for the trace-check job"
   | Some r ->
     let count k =
       match Obs.Json.member k r with
       | Some (Obs.Json.Num f) -> int_of_float f
       | _ -> fail "daemon smoke: trace-check result lacks %S" k
     in
     if count "streams" <> 6 || count "accepted" <> 6 || count "rejected" <> 0
     then
       fail "daemon smoke: trace-check verdicts %d/%d/%d, want 6/6/0"
         (count "streams") (count "accepted") (count "rejected");
     (match
        Option.bind (Obs.Json.member "report" r) (Obs.Json.member "schema")
      with
      | Some (Obs.Json.Str "trace-check/1") -> ()
      | _ -> fail "daemon smoke: trace-check report is not trace-check/1"));
  let retries =
    List.filter
      (fun e -> name e = "retrying" && str "id" e = Some "slow")
      evs
  in
  if retries = [] then
    fail "daemon smoke: the micro-deadline job never retried";
  List.iter
    (fun e ->
      if Obs.Json.member "resumed" e <> Some (Obs.Json.Bool true) then
        fail "daemon smoke: a retry restarted instead of resuming")
    retries;
  (match List.rev evs with
   | last :: _ when name last = "drained" ->
     let count k =
       match Obs.Json.member k last with
       | Some (Obs.Json.Num f) -> int_of_float f
       | _ -> -1
     in
     if count "done" <> 4 || count "failed" <> 0 then
       fail "daemon smoke: drain counted %d done / %d failed, want 4/0"
         (count "done") (count "failed")
   | _ -> fail "daemon smoke: the last event is not drained");
  Format.printf "daemon: 4 jobs (%d resumed retries) -> clean drain@."
    (List.length retries)

let () =
  (* first, while the heap and the intern table are small: the NS checks
     below leave both large, which slows the load both legs share and
     blurs the comparison *)
  check_cache_all_hits ();
  check_memo_edit ();
  check_fault_injection ();
  check_budgeted_engine ();
  check_lazy_spec ();
  check_reduction_speedup ();
  check_fails_cost ();
  check_cache_warm_speedup ();
  check_json_output ();
  check_lint_schema ();
  check_dataflow_lint ();
  check_trace_stream ();
  check_checkpoint_resume ();
  check_tracecheck_throughput ();
  check_trace_schemas ();
  check_line_decode_allocation ();
  check_daemon ();
  print_endline "smoke: ok"
