(* The per-layer metrics of the traced run, computed from one op's span
   tree. Times are self times in ms; [_kw] is thousands of words allocated.
   A layer that does not run on a workload reads 0 there. *)

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

let metrics =
  [
    m "candb.parse_ms" "ms" "lower";
    m "candb.parse_kw" "kw" "lower";
    m "capl.parse_ms" "ms" "lower";
    m "capl.parse_kw" "kw" "lower";
    m "analysis.lint_ms" "ms" "lower";
    m "analysis.lint_kw" "kw" "lower";
    m "extractor.build_ms" "ms" "lower";
    m "extractor.build_kw" "kw" "lower";
    m "extractor.emit_ms" "ms" "lower";
    m "extractor.script_bytes" "bytes" "lower";
    m "cspm.parse_ms" "ms" "lower";
    m "cspm.elaborate_ms" "ms" "lower";
    m "cspm.load_kw" "kw" "lower";
    m "cspm.check_ms" "ms" "lower";
    m "csp.lts_ms" "ms" "lower";
    m "csp.lts.states" "count" "lower";
    m "csp.lts.transitions" "count" "lower";
    m "csp.reduce.compile_ms" "ms" "lower";
    m "csp.reduce.staged_states" "count" "lower";
    m "csp.reduce.passes_ms" "ms" "lower";
    m "csp.reduce.ratio" "ratio" "lower";
    m "csp.normalise_ms" "ms" "lower";
    m "csp.normalise.nodes" "count" "lower";
    m "csp.refine_ms" "ms" "lower";
    m "csp.check_kw" "kw" "lower";
    m "csp.search_ms" "ms" "lower";
    m "csp.search.pairs" "count" "lower";
    m "csp.semantics.memo_hit_ratio" "ratio" "higher";
    m "csp.cex_ms" "ms" "lower";
    m "csp.cache.key_ms" "ms" "lower";
    m "csp.cache.hits" "count" "higher";
    m "csp.cache.misses" "count" "lower";
    m "csp.cache.hit_ratio" "ratio" "higher";
    m "csp.cache.resident_states" "count" "lower";
    m "csp.tracecheck_ms" "ms" "lower";
    m "trace.events" "count" "higher";
    m "trace.event_ratio" "ratio" "higher";
    m "extractor.trace_rv_ms" "ms" "lower";
    m "serve.protocol_ms" "ms" "lower";
    m "serve.runner_ms" "ms" "lower";
    m "serve.trace_io_ms" "ms" "lower";
    m "serve.trace_io_kw" "kw" "lower";
    m "serve.trace_run_ms" "ms" "lower";
    m "trace.entries" "count" "higher";
    m "trace.bytes" "bytes" "higher";
    m "ota.corpus_s" "s" "lower";
    m "serve.trace_run.prepare_ms" "ms" "lower";
    m "trace.op_ms" "ms" "lower";
    m "other_ms" "ms" "lower";
    m "attribution.coverage_pct" "%" "higher";
    m "trace.overhead_pct" "%" "lower";
    m "raw.latency_p50_ms" "ms" "lower";
    m "calib.kernel_ms" "ms" "lower";
  ]

(* Metrics that must repeat exactly between two traced runs. *)
let exact name =
  String.ends_with ~suffix:"_kw" name
  || List.mem name
       [
         "extractor.script_bytes";
         "csp.lts.states";
         "csp.lts.transitions";
         "csp.reduce.staged_states";
         "csp.normalise.nodes";
         "csp.search.pairs";
         "csp.cache.hits";
         "csp.cache.misses";
         "csp.cache.resident_states";
         "trace.events";
         "trace.entries";
         "trace.bytes";
       ]

let kw w = w /. 1e3
let ratio a b = if b > 0. then a /. b else 0.

(* States into the first reduction pass that ran vs out of the last. *)
let reduce_ratio op =
  let present =
    List.filter
      (fun p -> Trace.counter op ("reduce." ^ p ^ ".states_before") > 0.)
      [ "dead"; "tau"; "bisim" ]
  in
  match present, List.rev present with
  | first :: _, last :: _ ->
    ratio
      (Trace.counter op ("reduce." ^ last ^ ".states_after"))
      (Trace.counter op ("reduce." ^ first ^ ".states_before"))
  | _ -> 0.

(* Times and counts, from a [Full] op.

   Layers the benchmark cannot wrap from outside are apportioned with
   probes (isolated passes run after the op): [candb.parse] inside
   [Pipeline.parse_sources]; the daemon's script load and cache keys inside
   [Runner.run_pending]; fleet-trace's parse, map and step passes inside
   [Trace_run.check_corpus]. The enclosing span keeps the remainder. *)
let of_full (op : Trace.op) =
  (* times scale to nominal host speed, like the end-to-end latencies *)
  let ms s = s *. 1e3 *. op.Trace.factor in
  let self = Trace.self_s op and probe = Trace.probe_s op in
  let count = Trace.counter op and note = Trace.note_of op in
  let search, cex = Trace.search_split op in
  let memo_hits = count "semantics.memo_hits" in
  let memo_misses = count "semantics.memo_misses" in
  let hits = note "csp.cache.hits" and misses = note "csp.cache.misses" in
  let entries = note "trace.entries" and events = note "trace.events" in
  let load_probes = probe "cspm.parse" +. probe "cspm.elaborate" in
  let trace_probes =
    probe "serve.trace_io" +. probe "extractor.trace_rv"
    +. probe "csp.tracecheck"
  in
  let covered = Trace.top_level_s op in
  [
    "candb.parse_ms", ms (probe "candb.parse");
    "capl.parse_ms", ms (self "extractor.parse_sources" -. probe "candb.parse");
    "analysis.lint_ms", ms (self "analysis.lint");
    "extractor.build_ms", ms (self "extractor.build");
    "extractor.emit_ms", ms (self "extractor.emit");
    "extractor.script_bytes", note "extractor.script_bytes";
    "cspm.parse_ms", ms (self "cspm.parse" +. probe "cspm.parse");
    (* the [cspm.load] wrapper's own sliver counts as elaboration *)
    ( "cspm.elaborate_ms",
      ms (self "cspm.elaborate" +. self "cspm.load" +. probe "cspm.elaborate") );
    "cspm.check_ms", ms (self "cspm.check");
    "csp.lts_ms", ms (self "lts.compile");
    "csp.lts.states", count "lts.states";
    "csp.lts.transitions", count "lts.transitions";
    "csp.reduce.compile_ms", ms (self "reduce.compile_staged");
    "csp.reduce.staged_states", count "reduce.staged_states";
    ( "csp.reduce.passes_ms",
      ms (Trace.self_prefix_s op "reduce." -. self "reduce.compile_staged") );
    "csp.reduce.ratio", reduce_ratio op;
    "csp.normalise_ms", ms (self "normalise");
    "csp.normalise.nodes", count "normalise.nodes";
    "csp.refine_ms", ms (self "check.assertion" -. probe "csp.cache.key");
    "csp.search_ms", ms search;
    "csp.search.pairs", count "search.pairs_explored";
    "csp.semantics.memo_hit_ratio", ratio memo_hits (memo_hits +. memo_misses);
    "csp.cex_ms", ms cex;
    "csp.cache.key_ms", ms (probe "csp.cache.key");
    "csp.cache.hits", hits;
    "csp.cache.misses", misses;
    "csp.cache.hit_ratio", ratio hits (hits +. misses);
    "csp.cache.resident_states", note "csp.cache.resident_states";
    "csp.tracecheck_ms", ms (probe "csp.tracecheck");
    "trace.events", events;
    "trace.event_ratio", ratio events entries;
    "extractor.trace_rv_ms", ms (probe "extractor.trace_rv");
    "serve.protocol_ms", ms (self "serve.protocol");
    "serve.runner_ms", ms (self "serve.runner" -. load_probes);
    "serve.trace_io_ms", ms (probe "serve.trace_io");
    "serve.trace_run_ms", ms (self "serve.trace_run" -. trace_probes);
    "trace.entries", entries;
    "trace.bytes", note "trace.bytes";
    "trace.op_ms", ms op.Trace.op_s;
    "other_ms", ms (op.Trace.op_s -. covered);
    "attribution.coverage_pct", 100. *. ratio covered op.Trace.op_s;
  ]

(* Allocation, from a [Spans] op: no program span writes anything there, so
   these counts are exact. *)
let of_spans (op : Trace.op) =
  let words = Trace.words_of op and probe = Trace.probe_words op in
  let load_probes = probe "cspm.parse" +. probe "cspm.elaborate" in
  [
    "candb.parse_kw", kw (probe "candb.parse");
    "capl.parse_kw", kw (words "extractor.parse_sources" -. probe "candb.parse");
    "analysis.lint_kw", kw (words "analysis.lint");
    "extractor.build_kw", kw (words "extractor.build");
    "cspm.load_kw", kw (words "cspm.load" +. load_probes);
    ( "csp.check_kw",
      kw (words "cspm.check" +. words "serve.runner" -. load_probes) );
    "serve.trace_io_kw", kw (probe "serve.trace_io");
  ]
