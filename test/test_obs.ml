(* The observability layer: JSON round-trips, histogram bucketing, span
   nesting, Check_config's builders — and the load-bearing guarantee that
   instrumentation never changes what the checker computes: verdicts,
   counterexamples, and stats are byte-identical whatever the sink. *)

open Csp

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          "str", Str "line\nbreak \"quoted\" back\\slash";
          "int", Num 42.;
          "neg", Num (-2.5);
          "flags", List [ Bool true; Bool false; Null ];
          "nested", Obj [ "empty_list", List []; "empty_obj", Obj [] ];
        ])
  in
  (match Obs.Json.parse (Obs.Json.to_string v) with
   | Ok v' -> check_bool "round-trip preserves structure" true (v = v')
   | Error msg -> Alcotest.fail ("round-trip failed to parse: " ^ msg));
  (* integral floats print without a fraction part *)
  check_string "integral rendering" "42" Obs.Json.(to_string (Num 42.));
  (* accessors *)
  (match Obs.Json.parse " {\"a\": [1, 2.5, \"\\u0041\"], \"b\": true} " with
   | Ok j ->
     let a = Option.get (Obs.Json.member "a" j) in
     (match a with
      | Obs.Json.List [ one; half; letter ] ->
        check_int "to_int" 1 (Option.get (Obs.Json.to_int one));
        check_bool "to_int rejects fractions" true
          (Obs.Json.to_int half = None);
        Alcotest.(check (float 1e-9)) "to_float" 2.5
          (Option.get (Obs.Json.to_float half));
        check_string "unicode escape" "A" (Option.get (Obs.Json.to_str letter))
      | _ -> Alcotest.fail "unexpected shape for member a");
     check_bool "member miss" true (Obs.Json.member "zzz" j = None)
   | Error msg -> Alcotest.fail ("parse failed: " ^ msg));
  (* to_int is exact or None: nothing at or beyond 2^53 in magnitude *)
  List.iter
    (fun (f, want) ->
      Alcotest.(check (option int))
        (Printf.sprintf "to_int %h" f)
        want
        (Obs.Json.to_int (Obs.Json.Num f)))
    [
      (9007199254740991., Some 9007199254740991);
      (-9007199254740991., Some (-9007199254740991));
      (9007199254740992., None);
      (-9007199254740992., None);
      (1e19, None);
      (-1e19, None);
      (1e300, None);
      (infinity, None);
      (nan, None);
      (-0., Some 0);
    ];
  (match
     Obs.Json.parse {|{"max_states":1e19,"explored":10000000000000000000}|}
   with
   | Ok j ->
     List.iter
       (fun k ->
         check_bool (k ^ " out of range") true
           (Option.bind (Obs.Json.member k j) Obs.Json.to_int = None))
       [ "max_states"; "explored" ]
   | Error msg -> Alcotest.fail ("parse failed: " ^ msg));
  (* malformed inputs are Errors, not exceptions *)
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* a live handle whose output goes nowhere we look *)
let scratch_handle () =
  Obs.create (Obs.Console (Format.make_formatter (fun _ _ _ -> ()) ignore))

let test_histogram_bucketing () =
  let obs = scratch_handle () in
  (* deliberately unsorted bounds: registration must sort them *)
  let h = Obs.histogram ~buckets:[| 10.; 1.; 100. |] obs "h" in
  List.iter (Obs.observe h) [ 0.5; 1.0; 5.0; 1000.0 ];
  check_int "observations" 4 (Obs.histogram_observations h);
  Alcotest.(check (float 1e-6)) "sum" 1006.5 (Obs.histogram_sum h);
  (match Obs.histogram_counts h with
   | [ (b0, c0); (b1, c1); (b2, c2); (b3, c3) ] ->
     Alcotest.(check (float 0.)) "bound 0" 1. b0;
     Alcotest.(check (float 0.)) "bound 1" 10. b1;
     Alcotest.(check (float 0.)) "bound 2" 100. b2;
     check_bool "overflow bound" true (b3 = infinity);
     (* 0.5 and the 1.0 boundary land in le1; 5 in le10; 1000 overflows *)
     check_int "le1" 2 c0;
     check_int "le10" 1 c1;
     check_int "le100" 0 c2;
     check_int "overflow" 1 c3
   | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l));
  (* the second lookup of a name shares state with the first *)
  let h' = Obs.histogram obs "h" in
  Obs.observe h' 2.0;
  check_int "shared state" 5 (Obs.histogram_observations h)

let test_counters_and_gauges () =
  let obs = scratch_handle () in
  let c = Obs.counter obs "c" in
  Obs.incr c;
  Obs.add c 10;
  check_int "counter accumulates" 11 (Obs.counter_value c);
  check_int "same-name counter shares the cell" 11
    (Obs.counter_value (Obs.counter obs "c"));
  let g = Obs.gauge obs "g" in
  Obs.set g 3.5;
  Alcotest.(check (float 0.)) "gauge holds last value" 3.5 (Obs.gauge_value g);
  (* one name, two kinds: a programming error that must fail loudly *)
  (match Obs.gauge obs "c" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch must raise Invalid_argument");
  (* snapshot is sorted by name and sees everything registered *)
  (match Obs.metrics obs with
   | [ ("c", Obs.Counter 11); ("g", Obs.Gauge 3.5) ] -> ()
   | ms -> Alcotest.failf "unexpected snapshot of %d metrics" (List.length ms));
  (* silent handles register nothing and updates vanish *)
  let sc = Obs.counter Obs.silent "c" in
  Obs.incr sc;
  check_int "silent counter stays 0" 0 (Obs.counter_value sc);
  check_bool "silent snapshot is empty" true (Obs.metrics Obs.silent = []);
  check_bool "create Silent is the shared handle" true
    (Obs.is_silent (Obs.create Obs.Silent))

let test_span_nesting () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.create (Obs.Jsonl oc) in
  Obs.span obs "outer" (fun () -> Obs.span obs "inner" (fun () -> ()));
  (* the duration is recorded even when the body raises *)
  (try Obs.span obs "raises" (fun () -> raise Exit) with Exit -> ());
  Obs.flush obs;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let spans =
    List.filter_map
      (fun line ->
        match Obs.Json.parse line with
        | Error msg -> Alcotest.failf "unparseable trace line: %s" msg
        | Ok j ->
          (match Obs.Json.(member "ev" j, member "name" j, member "depth" j) with
           | Some (Obs.Json.Str "span"), Some (Obs.Json.Str name), Some d ->
             Some (name, Option.get (Obs.Json.to_int d))
           | _ -> None))
      (List.rev !lines)
  in
  (* spans emit at close: the inner one first, one level deeper *)
  match spans with
  | [ ("inner", 1); ("outer", 0); ("raises", 0) ] -> ()
  | _ ->
    Alcotest.failf "unexpected span stream: %s"
      (String.concat "; "
         (List.map (fun (n, d) -> Printf.sprintf "%s@%d" n d) spans))

(* ------------------------------------------------------------------ *)
(* Check_config                                                        *)
(* ------------------------------------------------------------------ *)

let test_check_config_builders () =
  let d = Check_config.default in
  check_int "default max_states" 1_000_000 d.Check_config.max_states;
  check_bool "default max_pairs" true (d.Check_config.max_pairs = None);
  check_bool "default deadline" true (d.Check_config.deadline = None);
  check_int "default workers" 1 d.Check_config.workers;
  check_bool "default obs is silent" true (Obs.is_silent d.Check_config.obs);
  check_bool "default progress" true (d.Check_config.progress = None);
  let c =
    Check_config.(
      default |> with_max_states 7 |> with_max_pairs 9 |> with_deadline 0.5
      |> with_workers 3)
  in
  check_int "with_max_states" 7 c.Check_config.max_states;
  check_bool "with_max_pairs" true (c.Check_config.max_pairs = Some 9);
  check_bool "with_deadline" true (c.Check_config.deadline = Some 0.5);
  check_int "with_workers" 3 c.Check_config.workers;
  (* each builder touches only its own field *)
  check_int "orthogonal" 1_000_000
    (Check_config.with_workers 5 d).Check_config.max_states

(* ------------------------------------------------------------------ *)
(* Instrumentation changes nothing                                     *)
(* ------------------------------------------------------------------ *)

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

(* every sink the engine can run under; handles are fresh per run but the
   discarding channel is shared, so qcheck iterations don't leak fds *)
let devnull = lazy (open_out Filename.null)

let sinks =
  [
    "silent", (fun () -> Obs.silent);
    "console", (fun () -> scratch_handle ());
    "jsonl", (fun () -> Obs.create (Obs.Jsonl (Lazy.force devnull)));
  ]

let obs_identity =
  QCheck.Test.make ~count:40
    ~name:"verdicts byte-identical across sinks"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      let run sink =
        let config =
          Check_config.(
            default |> with_max_states 50_000 |> with_obs (sink ()))
        in
        render (Refine.check ~config defs ~spec ~impl)
      in
      let expected = run (fun () -> Obs.silent) in
      List.for_all
        (fun (label, sink) ->
          let got = run sink in
          String.equal expected got
          || QCheck.Test.fail_reportf
               "sink=%s diverged:@.silent: %s@.got:    %s" label expected got)
        sinks)

(* A chain long enough (2000 states > the 256-dequeue poll cadence) that
   the throttled progress callback must fire, with sane monotone fields —
   and firing must not perturb the verdict. *)
let test_progress_callback () =
  let n = 2000 in
  let defs = Defs.create () in
  Defs.declare_channel defs "a" [ Ty.Int_range (0, n - 1) ];
  Defs.define_proc defs "CHAIN" [ "i" ]
    (Proc.prefix "a" [ Expr.var "i" ]
       (Proc.call
          ( "CHAIN",
            [ Expr.Bin (Expr.Mod, Expr.(var "i" + int 1), Expr.int n) ] )));
  let impl = Proc.call ("CHAIN", [ Expr.int 0 ]) in
  let spec = Proc.run (Eventset.chan "a") in
  let ticks = ref [] in
  (* reductions off: against the all-accepting RUN spec the default
     pipeline collapses the chain to a handful of states, and a search
     that short never reaches a 256-dequeue progress poll *)
  let raw = Check_config.(default |> with_reductions []) in
  let config =
    Check_config.(
      raw
      |> with_progress (fun (p : Search.progress) -> ticks := p :: !ticks))
  in
  let plain = render (Refine.traces_refines ~config:raw defs ~spec ~impl) in
  let observed = render (Refine.traces_refines ~config defs ~spec ~impl) in
  check_string "progress does not perturb the verdict" plain observed;
  let ticks = List.rev !ticks in
  check_bool "callback fired" true (List.length ticks >= 2);
  let pairs = List.map (fun p -> p.Search.pairs) ticks in
  check_bool "pair counts monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length pairs - 1) pairs)
       (List.tl pairs));
  List.iter
    (fun (p : Search.progress) ->
      check_bool "explored positive" true (p.Search.explored > 0);
      check_bool "budget fraction in range" true
        (p.Search.budget_frac >= 0. && p.Search.budget_frac <= 1.);
      check_bool "elapsed non-negative" true (p.Search.elapsed_s >= 0.))
    ticks

let suite =
  ( "obs",
    [
      Alcotest.test_case "Json round-trip and accessors" `Quick
        test_json_roundtrip;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "counters, gauges, registry" `Quick
        test_counters_and_gauges;
      Alcotest.test_case "span nesting in the JSONL stream" `Quick
        test_span_nesting;
      Alcotest.test_case "Check_config defaults and builders" `Quick
        test_check_config_builders;
      QCheck_alcotest.to_alcotest obs_identity;
      Alcotest.test_case "throttled progress callback" `Quick
        test_progress_callback;
    ] )
