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
  check_string "default renders in canonical order" "dead,tau,bisim"
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
  check_string "default parses to the full pipeline" "dead,tau,bisim"
    (parse "default");
  check_string "subsets are canonicalised" "tau,bisim" (parse "bisim,tau");
  check_string "duplicates collapse" "bisim" (parse "bisim, bisim");
  List.iter
    (fun (arg, bad) ->
      match Reduce.pipeline_of_string arg with
      | Ok _ -> Alcotest.failf "the unknown pass in %S was accepted" arg
      | Error msg ->
        check_bool "the error names the offending pass" true
          (Helpers.contains msg bad))
    [ "bisim,bogus", "bogus"; "por", "por"; "bisim,por", "por" ];
  List.iter
    (fun (model, expected) ->
      check_string
        (Printf.sprintf "effective passes under %s" expected)
        expected
        (Reduce.pipeline_to_string
           (Reduce.effective ~model Reduce.default_pipeline)))
    [ `Traces, "dead,tau,bisim"; `Failures, "tau,bisim"; `Fd, "tau,bisim" ];
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
        match Lts.compile ~max_states:50_000 defs p with
        | lts -> lts
        | exception Lts.State_limit _ ->
          QCheck.Test.fail_reportf "raw compile was partial"
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

(* The graph FD checks search and [--dot] prints is the raw compiler's
   graph, numbering included: the staged compile, root hiding
   applied to it, the root's call state restored and states renumbered
   breadth-first. Counterexamples of reduced checks are re-derived on the
   staged graph before renumbering, so row order decides which of two
   same-depth violations is reported, the state terms are what the
   counterexample prints, and the numbering is what FD checkpoints
   record. *)
let isomorphic ~what defs p =
  let raw =
    match Lts.compile ~max_states:20_000 defs p with
    | lts -> lts
    | exception Lts.State_limit _ -> QCheck.assume_fail ()
  in
  let explicit =
    let config = Check_config.(default |> with_max_states 200_000) in
    match Refine.explicit_graph ~config defs p with
    | Lts.Complete lts -> lts
    | Lts.Partial _ ->
      QCheck.Test.fail_reportf "%s: the staged compile was partial" what
  in
  let row lts i =
    String.concat " "
      (List.map
         (fun (l, j) -> Format.asprintf "%a->%d" Event.pp_label l j)
         (Lts.transitions_of lts i))
  in
  let n = Lts.num_states raw in
  if Lts.num_states explicit <> n then
    QCheck.Test.fail_reportf "%s: %d raw states, %d explicit" what n
      (Lts.num_states explicit);
  if raw.Lts.initial <> explicit.Lts.initial then
    QCheck.Test.fail_reportf "%s: initial states %d and %d" what
      raw.Lts.initial explicit.Lts.initial;
  for i = 0 to n - 1 do
    if not (Proc.equal (Lts.state_term raw i) (Lts.state_term explicit i))
    then
      QCheck.Test.fail_reportf "%s: state %d is %s raw, %s explicit" what i
        (Proc.to_string (Lts.state_term raw i))
        (Proc.to_string (Lts.state_term explicit i));
    if not (String.equal (row raw i) (row explicit i)) then
      QCheck.Test.fail_reportf "%s: rows of %s differ:@.raw:      %s@.explicit: %s"
        what
        (Proc.to_string (Lts.state_term raw i))
        (row raw i) (row explicit i)
  done;
  true

let staged_is_raw_graph =
  QCheck.Test.make ~count:400
    ~name:"random terms: staged graph = raw graph"
    Helpers.arb_proc (fun p ->
      isomorphic ~what:(Proc.to_string p) (Helpers.make_defs ()) p)

let staged_is_raw_graph_with_calls =
  QCheck.Test.make ~count:1000
    ~name:"named calls: staged graph = raw graph"
    Helpers.arb_def_set (fun ds ->
      isomorphic ~what:"def set" (Helpers.def_set_defs ds) ds.Helpers.root)

(* ------------------------------------------------------------------ *)
(* Root hiding applied to the compiled graph                           *)
(* ------------------------------------------------------------------ *)

(* A staged graph as text: the initial state, then each state's term and
   row, targets by number. *)
let render_graph (g : Lts.t) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "initial %d\n" g.Lts.initial;
  Array.iteri
    (fun i t ->
      Printf.bprintf buf "%d %s:" i (Proc.to_string t);
      List.iter
        (fun (l, j) -> Printf.bprintf buf " %s>%d" (Event.label_to_string l) j)
        g.Lts.transitions.(i);
      Buffer.add_char buf '\n')
    g.Lts.states;
  Buffer.contents buf

(* The body's staged graph, the hidden term's own staged compile (through
   [hide_comp]) and the graph [hide_staged] derives from the body's. *)
let hidden_graphs defs root =
  let compile p =
    match Reduce.compile_staged ~max_states:200_000 defs p with
    | Lts.Complete lts -> Some lts
    | Lts.Partial _ -> None
  in
  let body, sets = Reduce.split_hiding root in
  match compile body, compile root with
  | Some body_graph, Some direct ->
    Some (body_graph, direct, Reduce.hide_staged sets body_graph)
  | _ -> None

(* Derived and direct graphs agree state for state and row for row, with
   the same numbering: reduced graphs, their cache entries and
   checkpoints all go by it. *)
let derived_is_direct ~what defs root =
  match hidden_graphs defs root with
  | None -> QCheck.assume_fail ()
  | Some (_, direct, derived) ->
    let d = render_graph direct and e = render_graph derived in
    if
      String.equal d e
      && Array.for_all2 Proc.equal direct.Lts.states derived.Lts.states
    then true
    else
      QCheck.Test.fail_reportf "%s:@.direct:@.%s@.derived:@.%s" what d e

(* One or two hidings over a root. *)
let gen_hidings =
  QCheck.Gen.(list_size (int_range 1 2) Helpers.gen_eventset)

let hide_all root sets =
  List.fold_left (fun p set -> Proc.hide (p, set)) root sets

let derived_hiding_terms =
  QCheck.Test.make ~count:1000
    ~name:"random terms: derived hidden graph = direct compile"
    (QCheck.make ~print:Proc.to_string
       QCheck.Gen.(map2 hide_all Helpers.gen_proc gen_hidings))
    (fun root ->
      derived_is_direct ~what:(Proc.to_string root) (Helpers.make_defs ())
        root)

let derived_hiding_calls =
  QCheck.Test.make ~count:500
    ~name:"named calls: derived hidden graph = direct compile"
    (QCheck.make
       ~print:(fun (ds, sets) ->
         Helpers.print_def_set ds ^ "\nhidden: "
         ^ Proc.to_string (hide_all ds.Helpers.root sets))
       QCheck.Gen.(pair Helpers.gen_def_set gen_hidings))
    (fun (ds, sets) ->
      derived_is_direct ~what:"def set" (Helpers.def_set_defs ds)
        (hide_all ds.Helpers.root sets))

(* Wrapping makes twins when the body reaches both x and x \ H: here X
   and X \ {b}, and STOP and STOP \ {b}. The hidden graph merges each
   pair, numbered as the direct compile numbers it. *)
let test_hidden_twins () =
  let loaded =
    Cspm.Elaborate.load_string
      {|channel a, b, c
X = a -> (X \ {b}) [] b -> X [] c -> STOP
assert STOP [T= X \ {b}
|}
  in
  let root =
    match loaded.Cspm.Elaborate.assertions with
    | [ (Cspm.Ast.A_refines (_, _, impl), _) ] ->
      Cspm.Elaborate.proc_of_term loaded impl
    | _ -> Alcotest.fail "expected one refinement assertion"
  in
  match hidden_graphs loaded.Cspm.Elaborate.defs root with
  | None -> Alcotest.fail "a compile was partial"
  | Some (body, direct, derived) ->
    check_int "the body has four states" 4 (Lts.num_states body);
    check_int "the hidden graph has two" 2 (Lts.num_states derived);
    check_string "derived = direct" (render_graph direct)
      (render_graph derived)

(* ------------------------------------------------------------------ *)
(* The composition's row order is golden                               *)
(* ------------------------------------------------------------------ *)

(* [compile_staged] numbers states in the order the root's rows name
   them, and a parallel composition's row order is its own: free moves
   of the left row, then the right row with the scan join's matches in
   place, then the index join's, then the joint tick. Rows are sorted
   only after numbering, so the raw-graph property cannot see that
   order, while the discovery numbering, the checkpoint digests and
   bisim's representatives all go by it.
   [test/fixtures/par_order.csp] holds a scan join, an index join, an
   alphabetised parallel with taus, a dropped event and a joint tick, and
   one over whole-channel alphabets whose rows mix channels; any change
   to the emission order changes the digest of their staged graphs. *)
let par_order_digest = "1513212ca2cb60b952e37ddfb0f573b4"

let test_par_order_golden () =
  let loaded =
    Cspm.Elaborate.load_string (Helpers.read_fixture "par_order.csp")
  in
  let defs = loaded.Cspm.Elaborate.defs in
  let rendering =
    String.concat ""
      (List.map
         (fun name ->
           match Reduce.compile_staged defs (Proc.call (name, [])) with
           | Lts.Complete g -> name ^ "\n" ^ render_graph g
           | Lts.Partial _ ->
             Alcotest.failf "staged compile of %s was partial" name)
         [ "SCAN"; "INDEX"; "MIXED"; "CHANS" ])
  in
  check_string
    (Printf.sprintf "composition order digest of:\n%s" rendering)
    par_order_digest
    (Digest.to_hex (Digest.string rendering))

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

(* Under the default traces pipeline the dead pass turns every label
   the specification is insensitive to into tau, and tau elimination
   removes every tau edge, so a search of the reduced graph meets neither:
   nothing is left that a search-time reduction could defer. Specs
   interleave a term with RUN over a random set, so that some labels are
   spec-free. Tau elimination gives up on a graph whose closures outgrow
   its work cap, which a graph of a few thousand states does not reach;
   larger systems are discarded. *)
let default_leaves_nothing_to_defer =
  QCheck.Test.make ~count:300
    ~name:"default traces reduction leaves no tau and no spec-free label"
    (QCheck.pair
       (QCheck.make ~print:Proc.to_string
          QCheck.Gen.(
            map2
              (fun p s -> Proc.inter (p, Proc.run s))
              (Helpers.gen_proc_upto 4) Helpers.gen_eventset))
       Helpers.arb_def_set)
    (fun (spec, ds) ->
      let defs = Helpers.def_set_defs ds in
      match Reduce.compile_staged ~max_states:5_000 defs ds.Helpers.root with
      | Lts.Partial _ -> QCheck.assume_fail ()
      | Lts.Complete g ->
        let norm =
          Normalise.create ~max_states:50_000
            ~step:(Semantics.make_cached defs)
            (Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) spec)
        in
        let reduced, _ =
          Reduce.apply ~model:`Traces ~norm Reduce.default_pipeline g
        in
        let free = Reduce.spec_free_labels norm in
        Array.for_all
          (List.for_all (fun (l, _) ->
               match l with
               | Event.Tau ->
                 QCheck.Test.fail_reportf "a tau edge is left:@.%s"
                   (render_graph reduced)
               | Event.Vis _ when Event.Label_tbl.mem free l ->
                 QCheck.Test.fail_reportf "spec-free %s is left:@.%s"
                   (Event.label_to_string l) (render_graph reduced)
               | Event.Vis _ | Event.Tick -> true))
          reduced.Lts.transitions)

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

(* A same-label tie (two tau successors, say) decides which of two
   violations at one depth a breadth-first search meets first, and such
   ties show up in about one failing check in a hundred: the default
   pipeline is held to the raw engine on many pairs, traces and
   failures, with named compositions and without. *)
let default_fails_like_raw ~count ~name arb defs_and_terms =
  QCheck.Test.make ~count ~name arb (fun x ->
      let defs, spec, impl = defs_and_terms x in
      List.for_all
        (fun model ->
          let check reductions =
            render
              (Refine.check
                 ~config:
                   Check_config.(
                     default |> with_max_states 50_000
                     |> with_reductions reductions)
                 ~model defs ~spec ~impl)
          in
          let expected = check [] in
          let got = check Reduce.default_pipeline in
          String.equal expected got
          || QCheck.Test.fail_reportf
               "default reductions diverged from none:@.raw: %s@.got: \
                %s@.spec=%s@.impl=%s"
               expected got (Proc.to_string spec) (Proc.to_string impl))
        [ Refine.Traces; Refine.Failures ])

let default_fails_like_raw_terms =
  default_fails_like_raw ~count:1000
    ~name:"random terms: reduced Fails = raw Fails"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) -> Helpers.make_defs (), spec, impl)

let default_fails_like_raw_calls =
  default_fails_like_raw ~count:1000
    ~name:"named calls: reduced Fails = raw Fails"
    (QCheck.pair (QCheck.make ~print:Proc.to_string (Helpers.gen_proc_upto 4))
       Helpers.arb_def_set)
    (fun (spec, ds) -> Helpers.def_set_defs ds, spec, ds.Helpers.root)

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
    "dead,tau,bisim" cp.Search.pipeline;
  (* resuming under different reductions must be refused loudly *)
  (try
     ignore
       (Refine.resume
          ~config:Check_config.(default |> with_reductions [ Reduce.Bisim ])
          ~checkpoint:cp defs ~spec:impl ~impl);
     Alcotest.fail "a resume under different reductions was accepted"
   with Search.Resume_mismatch msg ->
     check_bool "the refusal names both pipelines" true
       (Helpers.contains msg "\"dead,tau,bisim\""
       && Helpers.contains msg "\"bisim\""));
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
      QCheck_alcotest.to_alcotest staged_is_raw_graph;
      QCheck_alcotest.to_alcotest staged_is_raw_graph_with_calls;
      QCheck_alcotest.to_alcotest derived_hiding_terms;
      QCheck_alcotest.to_alcotest derived_hiding_calls;
      Alcotest.test_case "hiding merges the twins it makes" `Quick
        test_hidden_twins;
      Alcotest.test_case "the composition row order is golden" `Quick
        test_par_order_golden;
      Alcotest.test_case "dead events + tau compression collapse" `Quick
        test_dead_and_tau_collapse;
      Alcotest.test_case "bisimulation quotienting merges equivalent states"
        `Quick test_bisim_quotients;
      QCheck_alcotest.to_alcotest default_leaves_nothing_to_defer;
      QCheck_alcotest.to_alcotest reduced_equals_raw;
      QCheck_alcotest.to_alcotest default_fails_like_raw_terms;
      QCheck_alcotest.to_alcotest default_fails_like_raw_calls;
      Alcotest.test_case "checkpoints record and enforce their pipeline"
        `Quick test_checkpoint_pipeline_mismatch;
    ] )
