(* The staged reduction pipeline: --reductions parsing, staged
   compilation against the one-shot compiler, each graph pass actually
   reducing what it claims to reduce, the reduced engine's verdicts and
   counterexamples staying byte-identical to the raw engine's for every
   pass combination, and checkpoints recording the pipeline they were
   taken under. *)

open Csp

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pipeline parsing and printing                                       *)
(* ------------------------------------------------------------------ *)

let test_pipeline_strings () =
  check_string "default renders in canonical order" "dead,tau,bisim,por"
    (Reduce.pipeline_to_string Reduce.default_pipeline);
  check_string "the empty pipeline renders as none" "none"
    (Reduce.pipeline_to_string []);
  check_string "fingerprint of the empty pipeline" "none"
    (Reduce.fingerprint []);
  let parse s =
    match Reduce.pipeline_of_string s with
    | Ok p -> Reduce.pipeline_to_string p
    | Error msg -> Alcotest.failf "%S did not parse: %s" s msg
  in
  check_string "none parses to the empty pipeline" "none" (parse "none");
  check_string "the empty string parses like none" "none" (parse "");
  check_string "default parses to the full pipeline" "dead,tau,bisim,por"
    (parse "default");
  check_string "subsets are canonicalised" "tau,bisim" (parse "bisim,tau");
  check_string "duplicates collapse" "por" (parse "por, por");
  (match Reduce.pipeline_of_string "bisim,bogus" with
   | Ok _ -> Alcotest.fail "an unknown pass name was accepted"
   | Error msg ->
     check_bool "the error names the offending pass" true
       (Helpers.contains msg "bogus"));
  List.iter
    (fun (model, expected) ->
      check_string
        (Printf.sprintf "effective passes under %s" expected)
        expected
        (Reduce.pipeline_to_string
           (Reduce.effective ~model Reduce.default_pipeline)))
    [ `Traces, "dead,tau,bisim,por"; `Failures, "tau,bisim"; `Fd, "tau,bisim" ];
  check_string "effective preserves canonical order on subsets" "dead,bisim"
    (Reduce.pipeline_to_string
       (Reduce.effective ~model:`Traces [ Reduce.Bisim; Reduce.Dead_events ]))

(* ------------------------------------------------------------------ *)
(* Staged compilation produces the same reachable behaviour            *)
(* ------------------------------------------------------------------ *)

(* The set of traces (label sequences, taus included) of length <= depth,
   rendered and sorted — a state-identity-free comparison between the two
   compilers. Memoized per (state, remaining depth). *)
let traces_to_depth lts depth =
  let memo = Hashtbl.create 97 in
  let rec suffixes st d =
    if d = 0 then [ "" ]
    else
      match Hashtbl.find_opt memo (st, d) with
      | Some ts -> ts
      | None ->
        let ts =
          ""
          :: List.concat_map
               (fun (l, j) ->
                 let lbl = Format.asprintf "%a" Event.pp_label l in
                 List.map (fun t -> lbl ^ ";" ^ t) (suffixes j (d - 1)))
               (Lts.transitions_of lts st)
        in
        let ts = List.sort_uniq compare ts in
        Hashtbl.add memo (st, d) ts;
        ts
  in
  suffixes lts.Lts.initial depth

let staged_compile_agrees =
  QCheck.Test.make ~count:120
    ~name:"compile_staged explores the same behaviour as Lts.compile"
    Helpers.arb_proc (fun p ->
      let defs = Helpers.make_defs () in
      let raw =
        match Lts.compile_budgeted ~max_states:50_000 defs p with
        | Lts.Complete lts -> lts
        | Lts.Partial _ -> QCheck.Test.fail_reportf "raw compile was partial"
      in
      let staged =
        match Reduce.compile_staged ~max_states:50_000 defs p with
        | Lts.Complete lts -> lts
        | Lts.Partial _ ->
          QCheck.Test.fail_reportf "staged compile was partial"
      in
      let expected = traces_to_depth raw 5 in
      let got = traces_to_depth staged 5 in
      if expected = got then true
      else
        QCheck.Test.fail_reportf
          "trace sets to depth 5 differ on %s:@.raw:    %s@.staged: %s"
          (Proc.to_string p)
          (String.concat " " expected)
          (String.concat " " got))

(* ------------------------------------------------------------------ *)
(* Each pass earns its keep                                            *)
(* ------------------------------------------------------------------ *)

(* A call-free chain of [n] sends on [chan], values cycling through the
   channel's 0..2 domain. *)
let chain chan n =
  let rec go i = if i = n then Proc.stop else Helpers.send chan (i mod 3) (go (i + 1)) in
  go 0

let reduction_stats name = function
  | Refine.Holds stats -> (
    match
      List.find_opt (fun (p, _, _) -> String.equal p name)
        stats.Refine.reductions
    with
    | Some (_, before, after) -> (stats, before, after)
    | None ->
      Alcotest.failf "no %S entry in the reduction stats of %a" name
        Refine.pp_result (Refine.Holds stats))
  | r -> Alcotest.failf "expected Holds, got %a" Refine.pp_result r

let test_dead_and_tau_collapse () =
  (* against an all-accepting spec every event is dead: the default
     pipeline must collapse a 60-state chain to almost nothing, and the
     pass stats must record the shrinkage in the result *)
  let defs = Helpers.make_defs () in
  let impl = chain "a" 60 in
  let spec = Proc.run (Eventset.chan "a") in
  let raw =
    Refine.check
      ~config:Check_config.(default |> with_reductions [])
      defs ~spec ~impl
  in
  let raw_pairs =
    match raw with
    | Refine.Holds s -> s.Refine.pairs
    | r -> Alcotest.failf "raw engine should hold, got %a" Refine.pp_result r
  in
  let reduced = Refine.check defs ~spec ~impl in
  let stats, before, after = reduction_stats "tau" reduced in
  check_bool "tau compression shrank the graph" true (after < before);
  check_bool "the reduced product is far smaller than the raw one" true
    (stats.Refine.pairs < 10 && raw_pairs > 50);
  check_string "all graph passes are on record" "dead,tau,bisim"
    (String.concat ","
       (List.map (fun (p, _, _) -> p) stats.Refine.reductions))

let test_bisim_quotients () =
  (* STOP and STOP ||| STOP are strongly bisimilar but structurally
     different, so the quotient must merge them — and then their
     one-step predecessors too *)
  let defs = Helpers.make_defs () in
  let impl =
    Proc.ext
      ( Helpers.send "a" 0 (Helpers.send "b" 0 Proc.stop),
        Helpers.send "a" 1
          (Helpers.send "b" 0 (Proc.inter (Proc.stop, Proc.stop))) )
  in
  let config =
    Check_config.(default |> with_reductions [ Reduce.Bisim ])
  in
  let result = Refine.check ~config defs ~spec:impl ~impl in
  let _, before, after = reduction_stats "bisim" result in
  check_int "five structural states" 5 before;
  check_int "quotiented to three bisimulation classes" 3 after

let test_por_prunes_interleavings () =
  (* two independent chains: ample sets must explore one component at a
     time instead of the full product grid *)
  let defs = Helpers.make_defs () in
  let impl = Proc.inter (chain "a" 6, chain "b" 6) in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let pairs config =
    match Refine.check ~config defs ~spec ~impl with
    | Refine.Holds s -> s.Refine.pairs
    | r -> Alcotest.failf "expected Holds, got %a" Refine.pp_result r
  in
  let raw = pairs Check_config.(default |> with_reductions []) in
  let por =
    pairs Check_config.(default |> with_reductions [ Reduce.Por ])
  in
  check_int "the raw search explores the full 7x7 grid" 49 raw;
  check_bool
    (Printf.sprintf "ample sets prune the grid (%d < %d)" por raw)
    true (por < raw)

(* ------------------------------------------------------------------ *)
(* Reduced verdicts are byte-identical to raw ones                     *)
(* ------------------------------------------------------------------ *)

(* Verdict plus counterexample, stats excluded: exploration counts
   legitimately differ between engines, everything the user acts on must
   not. *)
let render = function
  | Refine.Holds _ -> "holds"
  | Refine.Fails cex ->
    Format.asprintf "fails %a" Refine.pp_counterexample cex
  | Refine.Inconclusive _ -> "inconclusive"

let all_subsets =
  List.fold_left
    (fun acc p -> acc @ List.map (fun s -> s @ [ p ]) acc)
    [ [] ] Reduce.default_pipeline

let reduced_equals_raw =
  QCheck.Test.make ~count:12
    ~name:"every pass combination at every model matches the raw engine"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      List.for_all
        (fun model ->
          let expected =
            render
              (Refine.check
                 ~config:
                   Check_config.(
                     default |> with_max_states 50_000 |> with_reductions [])
                 ~model defs ~spec ~impl)
          in
          List.for_all
            (fun pipeline ->
              let config =
                Check_config.(
                  default |> with_max_states 50_000
                  |> with_reductions pipeline)
              in
              let got = render (Refine.check ~config ~model defs ~spec ~impl) in
              if String.equal expected got then true
              else
                QCheck.Test.fail_reportf
                  "reductions=%s model=%s diverged:@.raw: %s@.got: \
                   %s@.spec=%s@.impl=%s"
                  (Reduce.pipeline_to_string pipeline)
                  (match model with
                   | Refine.Traces -> "T"
                   | Refine.Failures -> "F"
                   | Refine.Failures_divergences -> "FD")
                  expected got (Proc.to_string spec) (Proc.to_string impl))
            all_subsets)
        [ Refine.Traces; Refine.Failures; Refine.Failures_divergences ])

(* ------------------------------------------------------------------ *)
(* Checkpoints record their pipeline                                   *)
(* ------------------------------------------------------------------ *)

(* A 20-state chain refining itself: no event is dead against this spec,
   no states are bisimilar, so the default pipeline leaves all 21 states
   in place and a 5-pair budget interrupts the reduced search itself. *)
let test_checkpoint_pipeline_mismatch () =
  let defs = Helpers.make_defs () in
  let impl = chain "a" 20 in
  let interrupted config =
    match
      Refine.check
        ~config:(Check_config.with_max_pairs 5 config)
        defs ~spec:impl ~impl
    with
    | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) -> cp
    | r ->
      Alcotest.failf "the pair budget did not bite: %a" Refine.pp_result r
  in
  let cp = interrupted Check_config.default in
  check_string "the checkpoint records the effective pipeline"
    "dead,tau,bisim,por" cp.Search.pipeline;
  (* resuming under different reductions must be refused loudly *)
  (try
     ignore
       (Refine.resume
          ~config:Check_config.(default |> with_reductions [ Reduce.Bisim ])
          ~checkpoint:cp defs ~spec:impl ~impl);
     Alcotest.fail "a resume under different reductions was accepted"
   with Search.Resume_mismatch msg ->
     check_bool "the refusal names both pipelines" true
       (Helpers.contains msg "dead,tau,bisim,por"
       && Helpers.contains msg "bisim"));
  (* the same pipeline resumes to the verdict *)
  check_string "a matching resume completes" "holds"
    (render (Refine.resume ~checkpoint:cp defs ~spec:impl ~impl));
  (* a raw-engine checkpoint names the raw engine, and a default-config
     resume must follow the recording, not its own pipeline *)
  let cp_raw = interrupted Check_config.(default |> with_reductions []) in
  check_string "raw checkpoints are stamped none" "none"
    cp_raw.Search.pipeline;
  check_string "a raw checkpoint resumes on the raw path" "holds"
    (render (Refine.resume ~checkpoint:cp_raw defs ~spec:impl ~impl))

let suite =
  ( "reduce",
    [
      Alcotest.test_case "--reductions parsing and rendering" `Quick
        test_pipeline_strings;
      QCheck_alcotest.to_alcotest staged_compile_agrees;
      Alcotest.test_case "dead events + tau compression collapse" `Quick
        test_dead_and_tau_collapse;
      Alcotest.test_case "bisimulation quotienting merges equivalent states"
        `Quick test_bisim_quotients;
      Alcotest.test_case "ample sets prune independent interleavings" `Quick
        test_por_prunes_interleavings;
      QCheck_alcotest.to_alcotest reduced_equals_raw;
      Alcotest.test_case "checkpoints record and enforce their pipeline"
        `Quick test_checkpoint_pipeline_mismatch;
    ] )
