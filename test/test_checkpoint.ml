(* Crash-safe checking: the checkpoint/resume machinery must be invisible
   in the verdicts. Interrupting a search — by pair budget, cancellation
   token, or heap watermark — and resuming from the checkpoint (JSON
   round-tripped) must reproduce the uninterrupted run's verdict,
   counterexample, and structural stats byte for byte; a checkpoint
   replayed against the wrong model must be refused. *)

open Csp

let check_string = Alcotest.(check string)

(* Canonical rendering: everything but the timing fields, which
   legitimately vary. *)
let render result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match result with
   | Refine.Holds s ->
     Format.fprintf ppf "Holds impl=%d spec=%d pairs=%d" s.Refine.impl_states
       s.Refine.spec_nodes s.Refine.pairs
   | Refine.Fails cex ->
     Format.fprintf ppf "Fails %a" Refine.pp_counterexample cex
   | Refine.Inconclusive (s, hint) ->
     Format.fprintf ppf "Inconclusive impl=%d spec=%d pairs=%d %a"
       s.Refine.impl_states s.Refine.spec_nodes s.Refine.pairs
       Refine.pp_resume_hint hint);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Serialize + reparse, as every consumer of a checkpoint file does. *)
let roundtrip cp =
  let encoded = Obs.Json.to_string (Search.json_of_checkpoint cp) in
  match Obs.Json.parse encoded with
  | Error msg -> Alcotest.failf "checkpoint does not re-parse: %s" msg
  | Ok json -> (
    match Search.checkpoint_of_json json with
    | Ok cp -> cp
    | Error msg -> Alcotest.failf "checkpoint does not round-trip: %s" msg)

(* ------------------------------------------------------------------ *)
(* A model big enough to be interruptible: the budget/cancel/memory     *)
(* polls fire once per 256 dequeues, so anything smaller than a couple  *)
(* of poll intervals can never observe an interrupt. Three interleaved  *)
(* mod-16 counters give 4096 implementation states.                     *)
(* ------------------------------------------------------------------ *)

let big_model () =
  let defs = Defs.create () in
  List.iter
    (fun c -> Defs.declare_channel defs c [ Ty.Int_range (0, 15) ])
    [ "x"; "y"; "z" ];
  let counter name chan stride =
    for i = 0 to 15 do
      Defs.define_proc defs
        (Printf.sprintf "%s%d" name i)
        []
        (Helpers.send chan i
           (Proc.call (Printf.sprintf "%s%d" name ((i + stride) mod 16), [])))
    done;
    Proc.call (name ^ "0", [])
  in
  let impl =
    Proc.inter
      (counter "P" "x" 1, Proc.inter (counter "Q" "y" 3, counter "R" "z" 5))
  in
  let recv chan k = Proc.prefix_items (chan, [ Proc.In ("v", None) ], k) in
  Defs.define_proc defs "SPEC" []
    (Proc.ext
       ( recv "x" (Proc.call ("SPEC", [])),
         Proc.ext
           ( recv "y" (Proc.call ("SPEC", [])),
             recv "z" (Proc.call ("SPEC", [])) ) ));
  (defs, Proc.call ("SPEC", []), impl)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_codec () =
  (* the digest sits near the top of its 52-bit range — above the 1e15
     cliff where a naive float formatter starts rounding integers *)
  let cp =
    {
      Search.explored = 9728;
      pairs = 11511;
      impl_states = 4096;
      visited_digest = 0xF_FFFF_FFFF_FFFF;
      deadline_left = Some 1.25;
      exhausted = Search.Interrupt;
      pipeline = "dead,tau,bisim,por";
    }
  in
  let cp' = roundtrip cp in
  Alcotest.(check bool) "all fields survive the JSON round trip" true
    (cp = cp');
  let cp_nodl = { cp with Search.deadline_left = None; exhausted = Search.Pairs } in
  Alcotest.(check bool) "no-deadline variant survives" true
    (cp_nodl = roundtrip cp_nodl);
  (match Search.checkpoint_of_json (Obs.Json.Str "nonsense") with
   | Ok _ -> Alcotest.fail "a non-object parsed as a checkpoint"
   | Error _ -> ());
  match
    Obs.Json.parse
      {|{"schema":"bogus/1","explored":1,"pairs":1,"impl_states":1,"visited_digest":1,"deadline_left":null,"exhausted":"pairs"}|}
  with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    match Search.checkpoint_of_json json with
    | Ok _ -> Alcotest.fail "a wrong schema tag was accepted"
    | Error _ -> ())

(* Checkpoint files are external input: a mutated one must decode to a
   checkpoint or to an error, never raise. The pool holds every
   [exhausted] kind, with and without a deadline, and every pipeline
   fingerprint shape. *)
let checkpoint_lines =
  lazy
    (Array.of_list
       (List.map
          (fun (exhausted, deadline_left, pipeline) ->
            Obs.Json.to_string
              (Search.json_of_checkpoint
                 {
                   Search.explored = 9728;
                   pairs = 11511;
                   impl_states = 4096;
                   visited_digest = 0xF_FFFF_FFFF_FFFF;
                   deadline_left;
                   exhausted;
                   pipeline;
                 }))
          [
            Search.Deadline, Some 1.25, "dead,tau,bisim,por";
            Search.States, None, "none";
            Search.Pairs, Some 0., "bisim";
            Search.Interrupt, None, "dead,tau";
            Search.Memory, Some 30., "por";
          ]))

let checkpoints_never_raise =
  QCheck.Test.make ~count:20_000
    ~name:"checkpoint_of_json classifies every mutated checkpoint"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (Helpers.gen_mutated ~pool:checkpoint_lines))
    (fun line ->
      match Obs.Json.parse line with
      | Error _ -> true
      | Ok json -> (
        match Search.checkpoint_of_json json with
        | Ok _ | Error _ -> true
        | exception e ->
          QCheck.Test.fail_reportf "checkpoint_of_json raised %s"
            (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* qcheck: interrupt at a random point, resume, compare                *)
(* ------------------------------------------------------------------ *)

let interrupt_resume_equals_uninterrupted =
  QCheck.Test.make ~count:60
    ~name:"pair-budget cut + JSON round trip + resume equals uninterrupted"
    QCheck.(triple Helpers.arb_proc Helpers.arb_proc (int_range 1 40))
    (fun (spec, impl, cut) ->
      List.for_all
        (fun model ->
          let defs = Helpers.make_defs () in
          (* reductions stay off throughout this file: the subject is the
             checkpoint machinery, whose pacing and pair counts are those
             of the raw engine (reduced-vs-raw equivalence has its own
             suite in test_reduce) *)
          let config =
            Check_config.(
              default |> with_max_states 50_000 |> with_reductions [])
          in
          let expected =
            render (Refine.check ~config ~model defs ~spec ~impl)
          in
          let cut_config =
            Check_config.(
              default |> with_max_states 50_000 |> with_max_pairs cut
              |> with_reductions [])
          in
          match Refine.check ~config:cut_config ~model defs ~spec ~impl with
          | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) ->
            let got =
              render
                (Refine.resume ~config ~model ~checkpoint:(roundtrip cp) defs
                   ~spec ~impl)
            in
            String.equal expected got
            || QCheck.Test.fail_reportf
                 "resume diverged:@.full: %s@.resumed: %s" expected got
          | other ->
            (* the cut did not bite (model smaller than the budget, or the
               exhaustion predates any interned pair): the budgeted result
               must simply agree with the unbudgeted one *)
            let got = render other in
            String.equal expected got
            || QCheck.Test.fail_reportf
                 "cut run without checkpoint diverged:@.full: %s@.cut: %s"
                 expected got)
        [ Refine.Traces; Refine.Failures ])

(* ------------------------------------------------------------------ *)
(* Cancellation token                                                  *)
(* ------------------------------------------------------------------ *)

let test_cancel_token_checkpoint_resume () =
  let defs, spec, impl = big_model () in
  let raw = Check_config.(default |> with_reductions []) in
  let expected = render (Refine.check ~config:raw defs ~spec ~impl) in
  let calls = ref 0 in
  let config =
    Check_config.(
      raw
      |> with_cancel (fun () ->
             incr calls;
             !calls >= 2))
  in
  match Refine.check ~config defs ~spec ~impl with
  | Refine.Inconclusive
      (stats, { Refine.exhausted = Refine.Interrupt; checkpoint = Some cp; _ })
    ->
    Alcotest.(check bool) "interrupt stopped the search early" true
      (stats.Refine.pairs < 4096);
    check_string "resumed verdict" expected
      (render
         (Refine.resume ~config:raw ~checkpoint:(roundtrip cp) defs ~spec
            ~impl))
  | other ->
    Alcotest.failf "expected an interrupt checkpoint, got: %s" (render other)

(* ------------------------------------------------------------------ *)
(* Heap watermark                                                      *)
(* ------------------------------------------------------------------ *)

let test_memory_watermark_checkpoint_resume () =
  let defs, spec, impl = big_model () in
  let raw = Check_config.(default |> with_reductions []) in
  let expected = render (Refine.check ~config:raw defs ~spec ~impl) in
  (* a 1 MB watermark is far below the live heap of a running test
     binary, so the first poll trips it — deterministically *)
  let config = Check_config.(raw |> with_memory_limit 1) in
  match Refine.check ~config defs ~spec ~impl with
  | Refine.Inconclusive
      (_, { Refine.exhausted = Refine.Memory; checkpoint = Some cp; _ }) ->
    (* the resume runs under the stock config on purpose: the checkpoint
       records the raw engine, and that recording — not the resuming
       config's reduction pipeline — must pick the engine *)
    check_string "resumed without the watermark" expected
      (render (Refine.resume ~checkpoint:(roundtrip cp) defs ~spec ~impl))
  | other ->
    Alcotest.failf "expected a memory-watermark stop, got: %s" (render other)

(* ------------------------------------------------------------------ *)
(* Refusing foreign checkpoints                                        *)
(* ------------------------------------------------------------------ *)

let test_resume_mismatch () =
  let defs, spec, impl = big_model () in
  let config =
    Check_config.(default |> with_max_pairs 1000 |> with_reductions [])
  in
  match Refine.check ~config defs ~spec ~impl with
  | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) ->
    let bad = { cp with Search.visited_digest = cp.Search.visited_digest lxor 1 } in
    (try
       ignore (Refine.resume ~checkpoint:bad defs ~spec ~impl);
       Alcotest.fail "a tampered digest was accepted"
     with Search.Resume_mismatch _ -> ());
    (* a model too small to ever reach the recorded position must refuse
       too, not silently return its own verdict *)
    let defs2 = Helpers.make_defs () in
    let p = Helpers.send "a" 0 Proc.stop in
    (try
       ignore (Refine.resume ~checkpoint:cp defs2 ~spec:p ~impl:p);
       Alcotest.fail "a checkpoint from a different model was accepted"
     with Search.Resume_mismatch _ -> ())
  | other -> Alcotest.failf "pair budget did not bite: %s" (render other)

(* ------------------------------------------------------------------ *)
(* Goldens: checkpoints written by earlier builds must still resume     *)
(* ------------------------------------------------------------------ *)

(* A checkpoint names a commit boundary by its pair count and visit-order
   digest, both of which follow from the order the engine interns states
   and pairs. Pinning them for one on-the-fly search and one over a
   reduced graph pins that order: a
   build that reorders interning would refuse every checkpoint an earlier
   build wrote. The FD cuts pin the numbering of the explicit graph an FD
   check searches, reduced or not: it must stay [Lts.compile]'s, which
   earlier builds compiled FD implementations with. *)
let test_checkpoint_golden () =
  let defs, spec, impl = big_model () in
  let fields ?model ?(spec = spec) config =
    match Refine.check ~config ?model defs ~spec ~impl with
    | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) ->
      Printf.sprintf "%s explored=%d pairs=%d impl_states=%d digest=%#x"
        cp.Search.pipeline cp.Search.explored cp.Search.pairs
        cp.Search.impl_states cp.Search.visited_digest
    | other -> Alcotest.failf "pair budget did not bite: %s" (render other)
  in
  let cut = Check_config.(default |> with_max_pairs 1000) in
  check_string "on the fly"
    "none explored=843 pairs=999 impl_states=1001 digest=0xc0d6902f3c7d9"
    (fields Check_config.(cut |> with_reductions []));
  (* CHAOS accepts every failure of the counters, and the failures
     pipeline (tau, bisim) leaves all 4096 of their states in place *)
  check_string "reduced graph"
    "tau,bisim explored=843 pairs=999 impl_states=4096 digest=0x1d86c603e71ab"
    (fields ~model:Refine.Failures
       ~spec:(Proc.chaos (Eventset.chans [ "x"; "y"; "z" ]))
       cut);
  let par_order =
    Cspm.Elaborate.load_string (Helpers.read_fixture "par_order.csp")
  in
  let fd_cut name ~pairs reductions =
    let p = Proc.call (name, []) in
    let config =
      Check_config.(
        default |> with_max_pairs pairs |> with_reductions reductions)
    in
    match
      Refine.check ~config ~model:Refine.Failures_divergences
        par_order.Cspm.Elaborate.defs ~spec:p ~impl:p
    with
    | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) ->
      Printf.sprintf "%s explored=%d pairs=%d impl_states=%d digest=%#x"
        cp.Search.pipeline cp.Search.explored cp.Search.pairs
        cp.Search.impl_states cp.Search.visited_digest
    | other -> Alcotest.failf "%s: pair budget did not bite: %s" name (render other)
  in
  check_string "FD cut of SCAN"
    "none explored=1 pairs=3 impl_states=4 digest=0x84145cfbe55ba"
    (fd_cut "SCAN" ~pairs:3 []);
  check_string "FD cut of INDEX, reduced"
    "tau,bisim explored=1 pairs=22 impl_states=22 digest=0x763ec21443e2e"
    (fd_cut "INDEX" ~pairs:22 Reduce.default_pipeline);
  check_string "FD cut of MIXED, reduced"
    "tau,bisim explored=5 pairs=12 impl_states=16 digest=0x458eadd452785"
    (fd_cut "MIXED" ~pairs:12 Reduce.default_pipeline);
  check_string "FD cut of CHANS"
    "none explored=15 pairs=20 impl_states=28 digest=0xf6b8f79e91863"
    (fd_cut "CHANS" ~pairs:20 [])

(* ------------------------------------------------------------------ *)
(* The cspm layer: run_seq + the cspm-checkpoint/1 document            *)
(* ------------------------------------------------------------------ *)

let seq_script =
  "channel a : {0..1}\n\
   channel x : {0..15}\n\
   channel y : {0..15}\n\
   channel z : {0..15}\n\
   TINY = a!0 -> STOP\n\
   P(n) = x!n -> P((n+1)%16)\n\
   Q(n) = y!n -> Q((n+3)%16)\n\
   R(n) = z!n -> R((n+5)%16)\n\
   SYS = P(0) ||| Q(0) ||| R(0)\n\
   BIG = x?v -> BIG [] y?v -> BIG [] z?v -> BIG\n\
   assert TINY [T= TINY\n\
   assert BIG [T= SYS\n"

let test_run_seq_interrupt_and_resume () =
  let loaded = Cspm.Elaborate.load_string seq_script in
  let raw = Check_config.(default |> with_reductions []) in
  let full, stop_full = Cspm.Check.run_seq ~config:raw loaded in
  Alcotest.(check bool) "uninterrupted run_seq completes" true
    (stop_full = None);
  let expected = List.map (fun o -> render o.Cspm.Check.result) full in
  (* TINY finishes under one poll interval and never observes the token;
     the second poll of BIG's search trips it *)
  let calls = ref 0 in
  let config =
    Check_config.(
      raw
      |> with_cancel (fun () ->
             incr calls;
             !calls >= 2))
  in
  let digest =
    Csp.Cache.script_digest ~pipeline:Reduce.default_pipeline seq_script
  in
  let outcomes, stop =
    Cspm.Check.run_seq ~from:(Cspm.Check.fresh digest) ~config loaded
  in
  match stop with
  | None -> Alcotest.fail "the cancellation token did not stop the sequence"
  | Some s ->
    Alcotest.(check int) "interrupted at the big assertion" 1
      s.Cspm.Check.next_index;
    Alcotest.(check int) "partial outcomes include the interrupted one" 2
      (List.length outcomes);
    (match (List.nth outcomes 1).Cspm.Check.result with
     | Refine.Inconclusive (_, hint) ->
       Alcotest.(check bool) "marked as an interrupt" true
         (hint.Refine.exhausted = Refine.Interrupt)
     | _ -> Alcotest.fail "the interrupted outcome should be inconclusive");
    Alcotest.(check bool) "an engine checkpoint in the stop state" true
      (Option.is_some s.Cspm.Check.search);
    Alcotest.(check (list string))
      "the settled outcome in the stop state"
      [ Obs.Json.to_string (Cspm.Check.json_of_outcome 0 (List.hd outcomes)) ]
      (List.map Obs.Json.to_string s.Cspm.Check.completed);
    (* the full cspm-checkpoint/1 document, round-tripped as the CLI
       writes and reads it *)
    let encoded = Obs.Json.to_string (Cspm.Check.json_of_resume_state s) in
    let st' =
      match Obs.Json.parse encoded with
      | Error msg -> Alcotest.failf "resume state does not re-parse: %s" msg
      | Ok json -> (
        match Cspm.Check.resume_state_of_json json with
        | Ok st -> st
        | Error msg -> Alcotest.failf "resume state rejected: %s" msg)
    in
    check_string "script digest survives" digest st'.Cspm.Check.script_digest;
    Alcotest.(check bool) "engine checkpoint survives the round trip" true
      (Option.is_some st'.Cspm.Check.search);
    let resumed, stop' = Cspm.Check.run_seq ~from:st' ~config:raw loaded in
    Alcotest.(check bool) "resume completes" true (stop' = None);
    let got =
      render (List.hd outcomes).Cspm.Check.result
      :: List.map (fun o -> render o.Cspm.Check.result) resumed
    in
    List.iteri
      (fun i (e, g) -> check_string (Printf.sprintf "assertion %d" i) e g)
      (List.combine expected got)

(* The graph checks compile before they search, and the staged compile
   polls the token: a tripped token stops them as an interrupt, not as a
   deadline, with the states the compile interned. They carry no engine
   checkpoint, and [run_seq] stops at them as at any interrupt. *)
let test_graph_checks_interrupt () =
  let defs, spec, impl = big_model () in
  let config = Check_config.(default |> with_cancel (fun () -> true)) in
  let interrupted what = function
    | Refine.Inconclusive
        (stats, { Refine.exhausted = Refine.Interrupt; checkpoint = None; _ })
      ->
      Alcotest.(check bool)
        (what ^ ": interned states reported") true
        (stats.Refine.impl_states > 0)
    | other -> Alcotest.failf "%s: expected an interrupt, got %s" what (render other)
  in
  interrupted "deadlock_free" (Refine.deadlock_free ~config defs impl);
  interrupted "divergence_free" (Refine.divergence_free ~config defs impl);
  interrupted "fd_refines" (Refine.fd_refines ~config defs ~spec ~impl);
  let loaded =
    Cspm.Elaborate.load_string
      "channel x : {0..15}\n\
       channel y : {0..15}\n\
       P(n) = x!n -> P((n+1)%16)\n\
       Q(n) = y!n -> Q((n+3)%16)\n\
       SYS = P(0) ||| Q(0)\n\
       U = U [] x!1 -> U\n\
       assert SYS :[deadlock free]\n\
       assert SYS :[divergence free]\n\
       assert STOP [T= U\n"
  in
  (* The interrupt ends every run there, on one domain or on two: the
     unguarded assertion after it reports no error. *)
  List.iter
    (fun workers ->
      let config = Check_config.with_workers workers config in
      let what = Printf.sprintf "workers=%d" workers in
      Alcotest.(check int)
        (what ^ ": run stops at the interrupt")
        1
        (List.length (Cspm.Check.run ~config loaded));
      match Cspm.Check.run_seq ~config loaded with
      | outcomes, Some { Cspm.Check.next_index = 0; search = None; _ } ->
        Alcotest.(check int)
          (what ^ ": only the interrupted outcome")
          1 (List.length outcomes)
      | _, (Some _ | None) ->
        Alcotest.failf "%s: run_seq did not stop at the interrupted check"
          what)
    [ 1; 2 ]

let test_resume_state_rejects_malformed () =
  let reject name json =
    match Cspm.Check.resume_state_of_json json with
    | Ok _ -> Alcotest.failf "%s was accepted" name
    | Error _ -> ()
  in
  reject "a non-object" (Obs.Json.Str "nope");
  (match
     Obs.Json.parse
       {|{"schema":"bogus/1","script_digest":"d","completed":[],"next_index":0,"search":null}|}
   with
   | Ok json -> reject "a wrong schema tag" json
   | Error msg -> Alcotest.fail msg);
  match
    Obs.Json.parse
      {|{"schema":"cspm-checkpoint/1","script_digest":"d","completed":[],"next_index":2,"search":null}|}
  with
  | Ok json -> reject "a completed/next_index mismatch" json
  | Error msg -> Alcotest.fail msg

let suite =
  ( "checkpoint",
    [
      Alcotest.test_case "checkpoint JSON codec round-trips exactly" `Quick
        test_checkpoint_codec;
      QCheck_alcotest.to_alcotest checkpoints_never_raise;
      QCheck_alcotest.to_alcotest interrupt_resume_equals_uninterrupted;
      Alcotest.test_case "cancel token: checkpoint then identical resume"
        `Quick test_cancel_token_checkpoint_resume;
      Alcotest.test_case "heap watermark: checkpoint then identical resume"
        `Quick test_memory_watermark_checkpoint_resume;
      Alcotest.test_case "foreign or tampered checkpoints are refused" `Quick
        test_resume_mismatch;
      Alcotest.test_case "pair-budget checkpoints are golden" `Quick
        test_checkpoint_golden;
      Alcotest.test_case "run_seq interrupt, document round trip, resume"
        `Quick test_run_seq_interrupt_and_resume;
      Alcotest.test_case "graph checks stop on the cancellation token"
        `Quick test_graph_checks_interrupt;
      Alcotest.test_case "malformed resume documents are rejected" `Quick
        test_resume_state_rejects_malformed;
    ] )
