(* Benchmark harness: regenerates every table and figure of the paper
   (DESIGN.md experiment index T1-T3, F1-F3) and adds the scalability and
   attack-analysis series (S1, S2) plus ablations of the engine's design
   choices. Each section prints the regenerated artifact, then reports
   Bechamel timings for the operation that produces it. *)

open Bechamel

let line = String.make 74 '='
let section id title =
  Format.printf "@.%s@.%s  %s@.%s@." line id title line

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let instance = Toolkit.Instance.monotonic_clock
let ols =
  Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let run_benchs name tests =
  let grouped = Test.make_grouped ~name tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raws = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raws in
  let rows =
    Hashtbl.fold
      (fun key ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | _ -> nan
        in
        (key, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-58s %14s@." "benchmark" "time/run";
  List.iter
    (fun (key, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Format.printf "%-58s %14s@." key human)
    rows

let bench name f = Test.make ~name (Staged.stage f)

let wall f =
  let t0 = Sys.time () in
  let r = f () in
  r, Sys.time () -. t0

(* ------------------------------------------------------------------ *)
(* T1 - Table I: CSPm notation / operator semantics                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1" "Table I: CSPm notation (per-operator engine round trip)";
  let defs = Csp.Defs.create () in
  Csp.Defs.declare_channel defs "a" [ Csp.Ty.Int_range (0, 3) ];
  Csp.Defs.declare_channel defs "b" [ Csp.Ty.Int_range (0, 3) ];
  let p0 = Csp.Proc.send "a" [ Csp.Value.Int 0 ] Csp.Proc.stop in
  let q0 = Csp.Proc.send "b" [ Csp.Value.Int 1 ] Csp.Proc.stop in
  let rows =
    [
      "Prefix", "P1 -> P2", p0;
      ( "Input", "?x",
        Csp.Proc.prefix_items ("a", [ Csp.Proc.In ("x", None) ], Csp.Proc.stop) );
      "Output", "!x", Csp.Proc.send "a" [ Csp.Value.Int 0 ] Csp.Proc.skip;
      "Sequential composition", "P1; P2", Csp.Proc.seq (p0, q0);
      "External choice", "P1 [] P2", Csp.Proc.ext (p0, q0);
      "Internal choice", "P1 |~| P2", Csp.Proc.intc (p0, q0);
      ( "Alphabetised parallel", "P [A||B] Q",
        Csp.Proc.apar (p0, Csp.Eventset.chan "a", Csp.Eventset.chan "b", q0) );
      "Interleaving", "P1 ||| P2", Csp.Proc.inter (p0, q0);
    ]
  in
  Format.printf "%-24s %-12s %-34s %s@." "Basic operator" "Notation"
    "CSPm (printed)" "transitions";
  List.iter
    (fun (name, notation, proc) ->
      let printed = Cspm.Print.proc_to_string proc in
      let printed =
        if String.length printed > 32 then String.sub printed 0 29 ^ "..."
        else printed
      in
      let n = List.length (Csp.Semantics.transitions defs proc) in
      Format.printf "%-24s %-12s %-34s %d@." name notation printed n)
    rows;
  let all_roundtrip =
    List.for_all
      (fun (_, _, proc) ->
        let printed = Cspm.Print.proc_to_string proc in
        match Cspm.Parser.term printed with
        | _ -> true
        | exception _ -> false)
      rows
  in
  Format.printf "@.all printed forms re-parse: %b@.@." all_roundtrip;
  run_benchs "table1"
    (List.map
       (fun (name, _, proc) ->
         bench
           (String.map (fun c -> if c = ' ' then '_' else c) name)
           (fun () -> Csp.Semantics.transitions defs proc))
       rows)

(* ------------------------------------------------------------------ *)
(* T2 - Table II: X.1373 message types on the simulated bus            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "T2" "Table II: message types exchanged on the simulated CAN bus";
  let sim = Ota.Capl_sources.simulation () in
  Capl.Simulation.start sim;
  ignore (Capl.Simulation.run ~until_ms:1000 sim);
  let tx = Capl.Simulation.transmissions sim in
  let row id name from to_ desc =
    let count =
      List.length (List.filter (fun (_, f) -> f.Canbus.Frame.id = id) tx)
    in
    Format.printf "%-8s %-8s %-5s %-5s %-44s %d@." name
      (Printf.sprintf "0x%03X" id) from to_ desc count
  in
  Format.printf "%-8s %-8s %-5s %-5s %-44s %s@." "Id" "CAN id" "From" "To"
    "Description" "observed";
  row 0x101 "reqSw" "VMG" "ECU" "Request diagnose software status";
  row 0x201 "rptSw" "ECU" "VMG" "Result of software diagnosis";
  row 0x102 "reqApp" "VMG" "ECU" "Request apply update module";
  row 0x202 "rptUpd" "ECU" "VMG" "Result of applying update module";
  Format.printf "@.";
  run_benchs "table2"
    [
      bench "simulate_update_campaign" (fun () ->
          let sim = Ota.Capl_sources.simulation () in
          Capl.Simulation.start sim;
          Capl.Simulation.run ~until_ms:1000 sim);
    ]

(* ------------------------------------------------------------------ *)
(* T3 - Table III: requirements R01-R05 as refinement checks           *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "T3" "Table III: secure-update requirements as refinement checks";
  let s = Ota.Scenario.make () in
  let checks = Ota.Requirements.run_all s in
  Format.printf "%-7s %-62s %s@." "ID" "Requirement" "verdict";
  List.iter
    (fun c ->
      Format.printf "%-7s %-62s %s@." c.Ota.Requirements.id
        c.Ota.Requirements.description
        (if Csp.Refine.holds c.Ota.Requirements.result then "PASS" else "FAIL"))
    checks;
  Format.printf "@.";
  run_benchs "table3"
    [
      bench "R01" (fun () -> Ota.Requirements.r01 s);
      bench "R02_SP02" (fun () -> Ota.Requirements.r02 s);
      bench "R03" (fun () -> Ota.Requirements.r03 s);
      bench "R04" (fun () -> Ota.Requirements.r04 s);
      bench "R05" (fun () -> Ota.Requirements.r05 s ~version:1);
    ]

(* ------------------------------------------------------------------ *)
(* F1 - Fig. 1: the workflow / toolchain pipeline                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "F1" "Fig. 1: end-to-end workflow (CAPL -> CSPm -> check)";
  let stage fmt = Format.printf fmt in
  let t_total = Sys.time () in
  let db, t1 = wall (fun () -> Candb.Dbc_parser.parse Ota.Capl_sources.dbc) in
  stage "1. parse CAN database           %6.2f ms (%d messages)@." (t1 *. 1e3)
    (List.length db.Candb.Dbc_ast.messages);
  let progs, t2 =
    wall (fun () ->
        List.map
          (fun (n, s) -> n, Capl.Parser.program s)
          Ota.Capl_sources.sources)
  in
  stage "2. lex + parse CAPL             %6.2f ms (%d nodes)@." (t2 *. 1e3)
    (List.length progs);
  let system, t3 = wall (fun () -> Extractor.Pipeline.build ~db progs) in
  stage "3. extract implementation model %6.2f ms (%d warnings)@." (t3 *. 1e3)
    (List.length (Extractor.Pipeline.warnings system));
  let script, t4 = wall (fun () -> Extractor.Pipeline.emit_script system) in
  stage "4. emit CSPm script             %6.2f ms (%d bytes)@." (t4 *. 1e3)
    (String.length script);
  let _loaded, t5 = wall (fun () -> Cspm.Elaborate.load_string script) in
  stage "5. reload through CSPm parser   %6.2f ms@." (t5 *. 1e3);
  let defs = system.Extractor.Pipeline.defs in
  let spec =
    Security.Properties.alternation ~name:"SP02_f1" defs ~first:"reqSw"
      ~second:"rptSw"
  in
  let impl =
    Csp.Proc.hide
      ( system.Extractor.Pipeline.composed,
        Csp.Eventset.chans [ "timer_VMG_retry"; "reqApp"; "rptUpd" ] )
  in
  let verdict, t6 =
    wall (fun () -> Csp.Refine.traces_refines defs ~spec ~impl)
  in
  stage "6. refinement check (SP02)      %6.2f ms (%s)@." (t6 *. 1e3)
    (if Csp.Refine.holds verdict then "holds" else "fails");
  stage "total                           %6.2f ms@.@."
    ((Sys.time () -. t_total) *. 1e3);
  run_benchs "fig1"
    [
      bench "full_pipeline" (fun () ->
          let system =
            Extractor.Pipeline.build_from_sources ~dbc:Ota.Capl_sources.dbc
              Ota.Capl_sources.sources
          in
          Extractor.Pipeline.emit_script system);
    ]

(* ------------------------------------------------------------------ *)
(* F2 - Fig. 2: the demonstration system's scope and state space       *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "F2" "Fig. 2: demonstration system (VMG + ECU), state spaces";
  let report name defs proc =
    let lts = Csp.Lts.compile defs proc in
    let deadlocks = List.length (Csp.Lts.deadlocks lts) in
    Format.printf "%-42s %6d states %6d transitions %2d quiescent@." name
      (Csp.Lts.num_states lts)
      (Csp.Lts.num_transitions lts)
      deadlocks
  in
  let system = Ota.Capl_sources.build_system () in
  report "extracted VMG || ECU" system.Extractor.Pipeline.defs
    system.Extractor.Pipeline.composed;
  let s0 = Ota.Scenario.make () in
  report "spec-level system, reliable medium" s0.Ota.Scenario.defs
    s0.Ota.Scenario.system;
  let s1 = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  report "spec-level system, Dolev-Yao intruder" s1.Ota.Scenario.defs
    s1.Ota.Scenario.system;
  let se = Ota.Scenario.make_extended () in
  report "extended scope (update server)" se.Ota.Scenario.defs
    se.Ota.Scenario.system;
  Format.printf "@.";
  run_benchs "fig2"
    [
      bench "compile_extracted_system" (fun () ->
          Csp.Lts.compile system.Extractor.Pipeline.defs
            system.Extractor.Pipeline.composed);
      bench "compile_with_intruder" (fun () ->
          Csp.Lts.compile s1.Ota.Scenario.defs s1.Ota.Scenario.system);
    ]

(* ------------------------------------------------------------------ *)
(* F3 - Fig. 3: the generated CSPm script                              *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "F3" "Fig. 3: ECU implementation model generated from CAPL";
  let system = Ota.Capl_sources.build_system () in
  Format.printf "%s@." (Extractor.Pipeline.emit_script system);
  run_benchs "fig3"
    [
      bench "extract_and_emit" (fun () ->
          Extractor.Pipeline.emit_script (Ota.Capl_sources.build_system ()));
      bench "reload_emitted_script" (fun () ->
          Extractor.Pipeline.reload system);
    ]

(* ------------------------------------------------------------------ *)
(* S1 - scalability: domain size and node count                        *)
(* ------------------------------------------------------------------ *)

let echo_system k =
  (* VMG cycles through k request values; ECU echoes *)
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

let multi_ecu_system n =
  (* n independent request/response pairs, interleaved *)
  let defs = Csp.Defs.create () in
  let parts =
    List.init n (fun i ->
        let req = Printf.sprintf "req%d" i
        and rsp = Printf.sprintf "rsp%d" i in
        Csp.Defs.declare_channel defs req [ Csp.Ty.Int_range (0, 1) ];
        Csp.Defs.declare_channel defs rsp [ Csp.Ty.Int_range (0, 1) ];
        let ecu = Printf.sprintf "ECU%d" i in
        Csp.Defs.define_proc defs ecu []
          (Csp.Proc.prefix_items
             ( req,
               [ Csp.Proc.In ("x", None) ],
               Csp.Proc.prefix rsp [ Csp.Expr.var "x" ]
                 (Csp.Proc.call (ecu, [])) ));
        let vmg = Printf.sprintf "VMG%d" i in
        Csp.Defs.define_proc defs vmg []
          (Csp.Proc.send req [ Csp.Value.Int 0 ]
             (Csp.Proc.prefix_items
                ([ rsp ] |> List.hd, [ Csp.Proc.In ("y", None) ],
                 Csp.Proc.call (vmg, []))));
        let spec_name = Printf.sprintf "SPEC%d" i in
        ignore
          (Security.Properties.request_response ~name:spec_name defs ~req
             ~resp:rsp);
        ( Csp.Proc.par
            ( Csp.Proc.call (vmg, []),
              Csp.Eventset.chans [ req; rsp ],
              Csp.Proc.call (ecu, []) ),
          Csp.Proc.call (spec_name, []) ))
  in
  let impl =
    match parts with
    | [] -> Csp.Proc.skip
    | (p0, _) :: rest ->
      List.fold_left (fun acc (p, _) -> Csp.Proc.inter (acc, p)) p0 rest
  in
  let spec =
    match parts with
    | [] -> Csp.Proc.skip
    | (_, s0) :: rest ->
      List.fold_left (fun acc (_, s) -> Csp.Proc.inter (acc, s)) s0 rest
  in
  defs, spec, impl

let scale () =
  section "S1" "Scalability: refinement cost vs data domain and node count";
  Format.printf "domain scaling (request/response over {0..k-1}):@.";
  Format.printf "%8s %10s %12s %12s@." "k" "pairs" "time" "verdict";
  List.iter
    (fun k ->
      let defs, spec, impl = echo_system k in
      let result, t =
        wall (fun () -> Csp.Refine.traces_refines defs ~spec ~impl)
      in
      let pairs =
        match result with
        | Csp.Refine.Holds stats | Csp.Refine.Inconclusive (stats, _) ->
          stats.Csp.Refine.pairs
        | Csp.Refine.Fails _ -> -1
      in
      Format.printf "%8d %10d %9.2f ms %12s@." k pairs (t *. 1e3)
        (if Csp.Refine.holds result then "holds" else "fails"))
    [ 2; 4; 8; 16; 32; 64 ];
  Format.printf "@.node scaling (n interleaved VMG/ECU pairs):@.";
  Format.printf "%8s %10s %12s@." "n" "pairs" "time";
  List.iter
    (fun n ->
      let defs, spec, impl = multi_ecu_system n in
      let result, t =
        wall (fun () -> Csp.Refine.traces_refines defs ~spec ~impl)
      in
      let pairs =
        match result with
        | Csp.Refine.Holds stats | Csp.Refine.Inconclusive (stats, _) ->
          stats.Csp.Refine.pairs
        | Csp.Refine.Fails _ -> -1
      in
      Format.printf "%8d %10d %9.2f ms@." n pairs (t *. 1e3))
    [ 1; 2; 3; 4; 5; 6 ];
  Format.printf "@.";
  let defs8, spec8, impl8 = echo_system 8 in
  let defs4n, spec4n, impl4n = multi_ecu_system 4 in
  run_benchs "scale"
    [
      bench "domain_k8" (fun () ->
          Csp.Refine.traces_refines defs8 ~spec:spec8 ~impl:impl8);
      bench "ecus_n4" (fun () ->
          Csp.Refine.traces_refines defs4n ~spec:spec4n ~impl:impl4n);
    ]

(* ------------------------------------------------------------------ *)
(* S2 - attack analysis: time to counterexample                        *)
(* ------------------------------------------------------------------ *)

let attack () =
  section "S2" "Attack analysis: R05 authenticity under the Dolev-Yao intruder";
  let run name scenario version expected =
    let result, t = wall (fun () -> Ota.Requirements.r05 scenario ~version) in
    let verdict = if Csp.Refine.holds result then "holds" else "ATTACK" in
    Format.printf "%-46s %9.2f ms  %-7s (expected %s)@." name (t *. 1e3)
      verdict expected;
    match result with
    | Csp.Refine.Fails cex ->
      Format.printf "    trace: %s@."
        (Csp.Pretty.trace_to_string cex.Csp.Refine.trace)
    | Csp.Refine.Holds _ | Csp.Refine.Inconclusive _ -> ()
  in
  run "secure ECU vs intruder"
    (Ota.Scenario.make ~medium:Ota.Scenario.Intruder ())
    1 "holds";
  run "flawed ECU (no MAC check) vs intruder"
    (Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder ())
    1 "ATTACK";
  run "secure ECU vs intruder with leaked key"
    (Ota.Scenario.make ~medium:Ota.Scenario.Intruder_with_shared_key ())
    0 "ATTACK";
  Format.printf "@.";
  let secure = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  let flawed =
    Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder ()
  in
  run_benchs "attack"
    [
      bench "verify_secure" (fun () -> Ota.Requirements.r05 secure ~version:1);
      bench "find_forgery" (fun () -> Ota.Requirements.r05 flawed ~version:1);
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "A"
    "Ablations: transition memoization; spec normalization";
  let s = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  let defs = s.Ota.Scenario.defs in
  let system = s.Ota.Scenario.system in
  let lts = Csp.Lts.compile defs system in
  let states = Array.to_list lts.Csp.Lts.states in
  Format.printf "workload: %d states of the intruder system@.@."
    (List.length states);
  run_benchs "ablate"
    [
      bench "transitions_uncached_2_sweeps" (fun () ->
          List.iter
            (fun p -> ignore (Csp.Semantics.transitions defs p))
            states;
          List.iter
            (fun p -> ignore (Csp.Semantics.transitions defs p))
            states);
      bench "transitions_memoized_2_sweeps" (fun () ->
          let step = Csp.Semantics.make_cached defs in
          List.iter (fun p -> ignore (step p)) states;
          List.iter (fun p -> ignore (step p)) states);
      bench "normalise_run_spec" (fun () ->
          Csp.Normalise.of_term defs
            (Csp.Proc.run (Csp.Eventset.chans [ "send"; "recv" ])));
    ]

let () =
  Format.printf
    "ecu_csp benchmark harness - regenerating the paper's tables and \
     figures@.";
  table1 ();
  table2 ();
  table3 ();
  fig1 ();
  fig2 ();
  fig3 ();
  scale ();
  attack ();
  ablations ();
  Format.printf "@.done.@."
