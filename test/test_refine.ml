(* Tests for the refinement checker: verdicts, counterexamples, the
   failures model, and the preorder laws as properties. *)

open Csp
open Helpers

let check_bool = Alcotest.(check bool)
let defs = make_defs ()

let holds = Refine.holds

let traces_ref spec impl = Refine.traces_refines defs ~spec ~impl
let failures_ref spec impl = Refine.failures_refines defs ~spec ~impl

let test_basic_verdicts () =
  let a0 = send "a" 0 Proc.stop in
  let ab = Proc.ext (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  check_bool "P refines P" true (holds (traces_ref a0 a0));
  check_bool "choice refines to branch" true (holds (traces_ref ab a0));
  check_bool "branch does not refine to choice" false (holds (traces_ref a0 ab));
  check_bool "STOP refines everything" true (holds (traces_ref ab Proc.stop))

let test_counterexample_trace () =
  let spec = send "a" 0 Proc.stop in
  let impl = send "a" 0 (send "b" 1 Proc.stop) in
  match traces_ref spec impl with
  | Refine.Fails cex ->
    Alcotest.(check int) "minimal counterexample" 2 (List.length cex.Refine.trace);
    (match cex.Refine.violation with
     | Refine.Trace_violation l ->
       Alcotest.check label "offending event" (vis "b" 1) l
     | _ -> Alcotest.fail "expected a trace violation")
  | Refine.Holds _ | Refine.Inconclusive _ -> Alcotest.fail "expected failure"

let test_tau_does_not_affect_traces () =
  (* spec a!0; impl has internal noise before a!0 *)
  let spec = send "a" 0 Proc.stop in
  let impl = Proc.hide (send "b" 1 (send "a" 0 Proc.stop), Eventset.chan "b") in
  check_bool "hidden prefix ok in traces" true (holds (traces_ref spec impl))

let test_failures_distinguishes_choice () =
  (* classic: traces equal, failures differ *)
  let ext = Proc.ext (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  let int_ = Proc.intc (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  check_bool "traces: int refines ext" true (holds (traces_ref ext int_));
  check_bool "failures: int does not refine ext" false
    (holds (failures_ref ext int_));
  check_bool "failures: ext refines int" true (holds (failures_ref int_ ext));
  (match failures_ref ext int_ with
   | Refine.Fails { Refine.violation = Refine.Refusal_violation _; _ } -> ()
   | _ -> Alcotest.fail "expected a refusal violation")

let test_failures_deadlock_detection () =
  (* spec requires offering a.0 forever; impl may deadlock *)
  let defs = make_defs () in
  Defs.define_proc defs "AS" [] (send "a" 0 (Proc.call ("AS", [])));
  let spec = Proc.call ("AS", []) in
  let impl = Proc.intc (Proc.call ("AS", []), Proc.stop) in
  check_bool "traces ok" true (holds (Refine.traces_refines defs ~spec ~impl));
  check_bool "failures catch refusal" false
    (holds (Refine.failures_refines defs ~spec ~impl))

let test_deadlock_divergence_checks () =
  check_bool "prefix-loop deadlock free" true
    (let defs = make_defs () in
     Defs.define_proc defs "L" [] (send "a" 0 (Proc.call ("L", [])));
     holds (Refine.deadlock_free defs (Proc.call ("L", []))));
  check_bool "STOP deadlocks" false (holds (Refine.deadlock_free defs Proc.stop));
  check_bool "SKIP is deadlock free" true (holds (Refine.deadlock_free defs Proc.skip));
  let defs2 = make_defs () in
  Defs.define_proc defs2 "D" [] (send "a" 0 (Proc.call ("D", [])));
  let diverging = Proc.hide (Proc.call ("D", []), Eventset.chan "a") in
  check_bool "hidden loop diverges" false (holds (Refine.divergence_free defs2 diverging));
  check_bool "visible loop does not" true
    (holds (Refine.divergence_free defs2 (Proc.call ("D", []))))

let infinite_counter () =
  let defs = make_defs () in
  (* an infinite-state process: counter grows without bound *)
  Defs.define_proc defs "N" [ "n" ]
    (Proc.prefix_items
       ("done_", [], Proc.call ("N", [ Expr.(var "n" + int 1) ])));
  defs

let test_state_limit () =
  let defs = infinite_counter () in
  match
    Refine.check ~config:Check_config.(default |> with_max_states 100) defs
      ~spec:(Proc.run (Eventset.chan "done_"))
      ~impl:(Proc.call ("N", [ Expr.int 0 ]))
  with
  | Refine.Inconclusive (stats, hint) ->
    check_bool "pair budget exhausted" true (hint.Refine.exhausted = Refine.Pairs);
    check_bool "explored some pairs" true (stats.Refine.pairs > 0);
    check_bool "frontier is non-empty" true (hint.Refine.frontier > 0)
  | r ->
    Alcotest.failf "expected Inconclusive, got %a" Refine.pp_result r

let test_deadline () =
  let defs = infinite_counter () in
  match
    Refine.check ~config:Check_config.(default |> with_deadline 0.001) defs
      ~spec:(Proc.run (Eventset.chan "done_"))
      ~impl:(Proc.call ("N", [ Expr.int 0 ]))
  with
  | Refine.Inconclusive (stats, hint) ->
    check_bool "deadline exhausted" true (hint.Refine.exhausted = Refine.Deadline);
    (* the counter never finishes compiling, so the deadline stops the
       staged compile and its progress is the states it interned *)
    check_bool "non-zero progress" true (stats.Refine.impl_states > 0)
  | r -> Alcotest.failf "expected Inconclusive, got %a" Refine.pp_result r

(* A reduced check whose staged compile is stopped by the token ends
   there: it does not fall back to the raw engine, whose search would stop
   at its first poll and leave a checkpoint recording the raw pipeline. *)
let test_interrupted_compile_stops () =
  let defs = infinite_counter () in
  match
    Refine.check
      ~config:Check_config.(default |> with_cancel (fun () -> true))
      defs
      ~spec:(Proc.run (Eventset.chan "done_"))
      ~impl:(Proc.call ("N", [ Expr.int 0 ]))
  with
  | Refine.Inconclusive (stats, hint) ->
    check_bool "interrupted" true (hint.Refine.exhausted = Refine.Interrupt);
    check_bool "no checkpoint" true (Option.is_none hint.Refine.checkpoint);
    Alcotest.(check int) "no pairs searched" 0 stats.Refine.pairs
  | r -> Alcotest.failf "expected Inconclusive, got %a" Refine.pp_result r

let test_deadline_does_not_mask_verdicts () =
  (* A tiny system finishes well inside any deadline; generous budgets
     must not change verdicts. *)
  let a0 = send "a" 0 Proc.stop in
  check_bool "holds under deadline" true
    (holds
       (Refine.check ~config:Check_config.(default |> with_deadline 60.0)
          defs ~spec:a0 ~impl:a0))

(* The resume hint leads with what stopped the search: three budgets run
   out, an interrupt and the heap watermark do not. *)
let test_resume_hint_kinds () =
  List.iter
    (fun (exhausted, lead) ->
      let hint =
        { Refine.frontier = 7; deepest = []; exhausted; checkpoint = None }
      in
      Alcotest.(check string)
        lead
        (lead ^ "; frontier = 7, deepest trace = <>")
        (Format.asprintf "%a" Refine.pp_resume_hint hint))
    [
      Refine.Deadline, "deadline exhausted";
      Refine.States, "state budget exhausted";
      Refine.Pairs, "pair budget exhausted";
      Refine.Interrupt, "interrupted";
      Refine.Memory, "memory watermark crossed";
    ]

(* Preorder laws, checked on random processes. *)
let big = Check_config.(default |> with_max_states 50_000)

let reflexive =
  QCheck.Test.make ~count:100 ~name:"trace refinement is reflexive" arb_proc
    (fun p -> holds (Refine.check ~config:big defs ~spec:p ~impl:p))

let transitive =
  QCheck.Test.make ~count:60 ~name:"trace refinement is transitive"
    (QCheck.triple arb_proc arb_proc arb_proc) (fun (p, q, r) ->
      let check a b = holds (Refine.check ~config:big defs ~spec:a ~impl:b) in
      QCheck.assume (check p q && check q r);
      check p r)

(* Agreement with the denotational definition: spec refines impl iff
   traces(impl) is a subset of traces(spec), up to the explored depth. *)
let agrees_with_trace_subset =
  QCheck.Test.make ~count:100 ~name:"refinement matches trace inclusion"
    (QCheck.pair arb_proc arb_proc) (fun (spec, impl) ->
      let verdict =
        holds (Refine.check ~config:big defs ~spec ~impl)
      in
      let ts_spec = Traces.of_lts ~depth:4 (Lts.compile defs spec) in
      let ts_impl = Traces.of_lts ~depth:4 (Lts.compile defs impl) in
      let subset = Traces.subset ts_impl ts_spec in
      (* the checker explores exhaustively, bounded depth only restricts
         the denotational side, so verdict=true must imply subset *)
      if verdict then subset else true)

(* A failing check's counterexample really is a trace of the
   implementation and not of the specification. *)
let counterexample_is_genuine =
  QCheck.Test.make ~count:100 ~name:"counterexamples are genuine"
    (QCheck.pair arb_proc arb_proc) (fun (spec, impl) ->
      match Refine.check ~config:big defs ~spec ~impl with
      | Refine.Holds _ | Refine.Inconclusive _ -> true
      | Refine.Fails cex ->
        let depth = List.length cex.Refine.trace in
        let ts_impl = Traces.of_lts ~depth (Lts.compile defs impl) in
        let ts_spec = Traces.of_lts ~depth (Lts.compile defs spec) in
        let mem set tr = List.exists (fun t -> List.equal Event.equal_label t tr) set in
        mem ts_impl cex.Refine.trace && not (mem ts_spec cex.Refine.trace))

let suite =
  ( "refine",
    [
      Alcotest.test_case "basic verdicts" `Quick test_basic_verdicts;
      Alcotest.test_case "minimal counterexamples" `Quick test_counterexample_trace;
      Alcotest.test_case "tau transparency" `Quick test_tau_does_not_affect_traces;
      Alcotest.test_case "failures vs traces" `Quick test_failures_distinguishes_choice;
      Alcotest.test_case "failures find refusals" `Quick test_failures_deadlock_detection;
      Alcotest.test_case "deadlock and divergence" `Quick test_deadlock_divergence_checks;
      Alcotest.test_case "state limits" `Quick test_state_limit;
      Alcotest.test_case "deadline budget" `Quick test_deadline;
      Alcotest.test_case "interrupted compile stops the check" `Quick
        test_interrupted_compile_stops;
      Alcotest.test_case "deadline preserves verdicts" `Quick
        test_deadline_does_not_mask_verdicts;
      Alcotest.test_case "resume hint names what stopped the search" `Quick
        test_resume_hint_kinds;
      QCheck_alcotest.to_alcotest reflexive;
      QCheck_alcotest.to_alcotest transitive;
      QCheck_alcotest.to_alcotest agrees_with_trace_subset;
      QCheck_alcotest.to_alcotest counterexample_is_genuine;
    ] )
