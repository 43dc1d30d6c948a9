(* The content-addressed LTS cache: warm verdicts byte-identical to cold
   ones for every model and pipeline; digests that miss
   only for the definitions an edit can actually reach; warm re-checks
   skipping the compile/normalise/reduce spans entirely; disk
   persistence surviving a fresh process ("daemon restart"); and a
   shared cache staying coherent under concurrent checking domains. *)

open Csp

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let render = function
  | Refine.Holds _ -> "holds"
  | Refine.Fails cex ->
    Format.asprintf "fails %a" Refine.pp_counterexample cex
  | Refine.Inconclusive _ -> "inconclusive"

let all_subsets =
  List.fold_left
    (fun acc p -> acc @ List.map (fun s -> s @ [ p ]) acc)
    [ [] ] Reduce.default_pipeline

(* ------------------------------------------------------------------ *)
(* Warm verdicts are byte-identical to cold ones                       *)
(* ------------------------------------------------------------------ *)

(* One cache is shared across the whole configuration matrix, exactly as
   the daemon shares one across a job stream: later configurations hit
   entries populated by earlier ones, and every cached verdict —
   first-touch or hit — must render identically to the cache-free
   engine's. *)
let cached_equals_uncached =
  QCheck.Test.make ~count:6
    ~name:"cached verdicts match uncached ones for every model and pipeline"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let cache = Cache.create () in
      List.for_all
        (fun model ->
          let defs = Helpers.make_defs () in
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
                  |> with_reductions pipeline |> with_cache cache)
              in
              List.for_all
                (fun leg ->
                  let got =
                    render (Refine.check ~config ~model defs ~spec ~impl)
                  in
                  if String.equal expected got then true
                  else
                    QCheck.Test.fail_reportf
                      "%s leg diverged (reductions=%s model=%s):@.uncached: \
                       %s@.cached:   %s@.spec=%s@.impl=%s"
                      leg
                      (Reduce.pipeline_to_string pipeline)
                      (match model with
                       | Refine.Traces -> "T"
                       | Refine.Failures -> "F"
                       | Refine.Failures_divergences -> "FD")
                      expected got (Proc.to_string spec)
                      (Proc.to_string impl))
                [ "cold"; "warm" ])
            all_subsets)
        [ Refine.Traces; Refine.Failures; Refine.Failures_divergences ])

(* ------------------------------------------------------------------ *)
(* Digest invalidation is exactly as wide as reachability              *)
(* ------------------------------------------------------------------ *)

(* Two environments differing in one definition's body: terms that can
   reach the edited definition must change digest, terms that cannot
   must keep it — byte for byte, across distinct [Defs.t] values. *)
let edited_defs () =
  let build p_body =
    let defs = Helpers.make_defs () in
    Defs.define_proc defs "P" [] p_body;
    Defs.define_proc defs "Q" [] (Helpers.send "b" 0 Proc.stop);
    Defs.define_proc defs "Top" []
      (Proc.inter (Proc.call ("P", []), Proc.call ("Q", [])));
    defs
  in
  ( build (Helpers.send "a" 0 Proc.stop),
    build (Helpers.send "a" 1 Proc.stop) )

let test_digest_reachability () =
  let defs1, defs2 = edited_defs () in
  let d defs name = Cache.digest_term defs (Proc.call (name, [])) in
  check_string "a term that cannot reach the edit keeps its digest"
    (d defs1 "Q") (d defs2 "Q");
  check_bool "a term naming the edited definition changes digest" true
    (not (String.equal (d defs1 "P") (d defs2 "P")));
  check_bool "a term reaching the edit transitively changes digest" true
    (not (String.equal (d defs1 "Top") (d defs2 "Top")));
  (* the same content in a freshly built environment digests identically —
     keys are content, not [Defs.t] identity *)
  let defs1', _ = edited_defs () in
  check_string "digests are content-addressed, not Defs-identity-addressed"
    (d defs1 "Top") (d defs1' "Top")

(* The declarations' digest is memoised per environment state, so the
   memo must never outlive a declaration: each kind of declaration added
   after a key was taken changes the key of the same term in the same
   environment. *)
let test_declarations_invalidate_keys () =
  let defs = Helpers.make_defs () in
  Defs.define_proc defs "P" [] (Helpers.send "a" 0 Proc.stop);
  let key () = Cache.digest_term defs (Proc.call ("P", [])) in
  let steps =
    [
      ("declare_channel", fun () -> Defs.declare_channel defs "late" []);
      ( "declare_datatype",
        fun () -> Defs.declare_datatype defs "Late" [ "l1", []; "l2", [] ] );
      ( "declare_nametype",
        fun () -> Defs.declare_nametype defs "N" (Ty.Int_range (0, 3)) );
    ]
  in
  ignore
    (List.fold_left
       (fun before (what, declare) ->
         check_string "an unchanged environment keys stably" before (key ());
         declare ();
         let after = key () in
         check_bool (what ^ " after a key was taken changes it") true
           (not (String.equal before after));
         after)
       (key ()) steps)

(* A copy is a distinct environment with the same content: it keys like
   its source until either side gains a declaration the other lacks. Both
   sides then sit one declaration past the copy, so a copy that shared its
   source's id would alias their memo entries. *)
let test_copy_keys_like_source () =
  let defs = Helpers.make_defs () in
  Defs.define_proc defs "P" [] (Helpers.send "a" 0 Proc.stop);
  let term = Proc.call ("P", []) in
  let key d = Cache.digest_term d term in
  let original = key defs in
  let copy = Defs.copy defs in
  check_string "a copy keys like its source" original (key copy);
  Defs.declare_channel copy "only_in_copy" [];
  check_bool "extending the copy changes its key" true
    (not (String.equal original (key copy)));
  check_string "and leaves the source's alone" original (key defs);
  Defs.declare_channel defs "only_in_source" [];
  check_bool "extending the source changes its key" true
    (not (String.equal original (key defs)));
  check_bool "to one of its own, not the copy's" true
    (not (String.equal (key copy) (key defs)))

(* Definitions are keyed by reachability, not memoised with the
   declarations: defining a name the term reaches changes its key, any
   other name leaves it alone. *)
let test_define_proc_keys_by_reachability () =
  let defs = Helpers.make_defs () in
  Defs.define_proc defs "P" [] (Proc.call ("Q", []));
  let key () = Cache.digest_term defs (Proc.call ("P", [])) in
  let before = key () in
  Defs.define_proc defs "Unrelated" [] (Helpers.send "b" 1 Proc.stop);
  check_string "defining an unreachable name keeps the key" before (key ());
  Defs.define_proc defs "Q" [] (Helpers.send "a" 0 Proc.stop);
  check_bool "defining a reachable name changes the key" true
    (not (String.equal before (key ())))

(* After an edit, re-checking the untouched component is pure hits and
   the edited component is a fresh miss — the incremental-re-checking
   contract, observed through the stats counters. *)
let test_edit_invalidates_only_affected () =
  let defs1, defs2 = edited_defs () in
  let cache = Cache.create () in
  let config =
    Check_config.(default |> with_max_states 10_000 |> with_cache cache)
  in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let run defs name =
    render (Refine.check ~config defs ~spec ~impl:(Proc.call (name, [])))
  in
  check_string "P holds before the edit" "holds" (run defs1 "P");
  check_string "Q holds before the edit" "holds" (run defs1 "Q");
  let cold = Cache.stats cache in
  check_bool "the cold runs populated the cache" true (cold.Cache.misses > 0);
  (* untouched component: every lookup hits *)
  check_string "Q holds after the edit" "holds" (run defs2 "Q");
  let after_q = Cache.stats cache in
  check_int "re-checking the untouched component misses nothing"
    cold.Cache.misses after_q.Cache.misses;
  check_bool "and it hit the cache" true (after_q.Cache.hits > cold.Cache.hits);
  (* edited component: its graph keys miss (the spec's key still hits) *)
  check_string "P holds after the edit too" "holds" (run defs2 "P");
  let after_p = Cache.stats cache in
  check_bool "re-checking the edited component recompiles" true
    (after_p.Cache.misses > after_q.Cache.misses)

(* ------------------------------------------------------------------ *)
(* A warm re-check skips compile, normalise, and reduce entirely       *)
(* ------------------------------------------------------------------ *)

let spans_of_run f =
  let path = Filename.temp_file "cache_spans" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.create (Obs.Jsonl oc) in
  f obs;
  Obs.flush obs;
  close_out oc;
  let names = ref [] in
  let ic = open_in path in
  (try
     while true do
       match Obs.Json.parse (input_line ic) with
       | Error _ -> ()
       | Ok json ->
         (match Obs.Json.(member "ev" json, member "name" json) with
          | Some (Obs.Json.Str "span"), Some (Obs.Json.Str name) ->
            names := name :: !names
          | _ -> ())
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  !names

let test_warm_run_skips_pipeline_spans () =
  let cache = Cache.create () in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "b" 1 Proc.stop) in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let run obs =
    check_string "the check holds" "holds"
      (render
         (Refine.check
            ~config:Check_config.(default |> with_cache cache |> with_obs obs)
            defs ~spec ~impl))
  in
  let has names prefix = List.exists (fun n -> Helpers.contains n prefix) names in
  let cold = spans_of_run run in
  check_bool "the cold run compiled" true
    (has cold "reduce.compile_staged");
  check_bool "the cold run normalised" true (has cold "normalise");
  let warm = spans_of_run run in
  check_bool "the warm run searched" true (has warm "search.");
  check_bool "the warm run did not normalise" false (has warm "normalise");
  check_bool "the warm run did not reduce" false (has warm "reduce.")

(* ------------------------------------------------------------------ *)
(* Disk persistence: a fresh cache starts warm from the directory      *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "ltscache" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let test_persistence_across_caches () =
  let dir = temp_dir () in
  let persist =
    { Cache.dir; write = (fun ~path text -> Serve.Fsio.atomic_write ~path text) }
  in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "a" 1 Proc.stop) in
  let spec = Proc.run (Eventset.chan "a") in
  let run cache =
    render
      (Refine.check
         ~config:Check_config.(default |> with_cache cache)
         defs ~spec ~impl)
  in
  let first = Cache.create ~persist () in
  check_string "cold verdict" "holds" (run first);
  check_bool "entries were spilled" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".ltsc")
       (Sys.readdir dir));
  (* a different cache value, as after a daemon restart: memory is empty,
     the directory is not *)
  let second = Cache.create ~persist () in
  check_string "warm verdict from disk" "holds" (run second);
  let s = Cache.stats second in
  check_bool
    (Printf.sprintf "the restarted cache hit the directory (%d hits)"
       s.Cache.hits)
    true (s.Cache.hits > 0);
  (* a corrupted entry is a miss, not a crash *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ltsc" then (
        let oc = open_out (Filename.concat dir f) in
        output_string oc "not a cache entry";
        close_out oc))
    (Sys.readdir dir);
  let third = Cache.create ~persist () in
  check_string "corrupt entries fall back to recompiling" "holds" (run third);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Every single-bit flip anywhere in a spilled entry must read as a miss:
   the header's payload digest rejects it before [Marshal] sees a byte,
   so the check recompiles and reaches the cold run's verdict. The model
   fails, so a warm run reads the spec's normal form and the reduced
   graph, and the counterexample it prints depends on both. *)
let test_flipped_entries_are_misses () =
  let dir = temp_dir () in
  (* a plain write: the sweep rewrites entries thousands of times, and
     durability is not what it tests *)
  let write ~path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let persist = { Cache.dir; write } in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "a" 1 Proc.stop) in
  let spec = Helpers.send "a" 0 Proc.stop in
  let run cache =
    render
      (Refine.check
         ~config:Check_config.(default |> with_cache cache)
         defs ~spec ~impl)
  in
  let cold = run (Cache.create ~persist ()) in
  check_bool "the model fails" true (String.starts_with ~prefix:"fails" cold);
  let entries =
    List.filter
      (fun f -> Filename.check_suffix f ".ltsc")
      (Array.to_list (Sys.readdir dir))
  in
  check_bool "entries were spilled" true (entries <> []);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let key = Filename.chop_suffix file ".ltsc" in
      let original = In_channel.with_open_bin path In_channel.input_all in
      for i = 0 to String.length original - 1 do
        for bit = 0 to 7 do
          let flipped = Bytes.of_string original in
          Bytes.set flipped i
            (Char.chr (Char.code original.[i] lxor (1 lsl bit)));
          write ~path (Bytes.to_string flipped);
          if Cache.find (Cache.create ~persist ()) key <> None then
            Alcotest.failf "%s: flipping bit %d of byte %d was a hit" file bit
              i;
          let got = run (Cache.create ~persist ()) in
          if not (String.equal cold got) then
            Alcotest.failf
              "%s: flipping bit %d of byte %d changed the verdict:@.cold: \
               %s@.got:  %s"
              file bit i cold got
        done
      done;
      write ~path original)
    entries;
  check_string "the intact directory still warms a fresh cache" cold
    (run (Cache.create ~persist ()));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A file written under an older format version is a miss, even when its
   payload and digest are intact: a /3 staged graph lacks the call states
   and the row order that counterexamples are re-derived from. *)
let test_old_format_is_a_miss () =
  let dir = temp_dir () in
  let write ~path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let persist = { Cache.dir; write } in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "a" 1 Proc.stop) in
  let spec = Helpers.send "a" 0 Proc.stop in
  ignore
    (Refine.check
       ~config:Check_config.(default |> with_cache (Cache.create ~persist ()))
       defs ~spec ~impl);
  let current = "cspm-lts-cache/4:" and old = "cspm-lts-cache/3:" in
  let entries =
    List.filter
      (fun f -> Filename.check_suffix f ".ltsc")
      (Array.to_list (Sys.readdir dir))
  in
  check_bool "entries were spilled" true (entries <> []);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let key = Filename.chop_suffix file ".ltsc" in
      let text = In_channel.with_open_bin path In_channel.input_all in
      check_bool (file ^ " carries the current magic") true
        (String.starts_with ~prefix:current text);
      check_bool (file ^ " is a hit as written") true
        (Cache.find (Cache.create ~persist ()) key <> None);
      let n = String.length current in
      write ~path (old ^ String.sub text n (String.length text - n));
      check_bool (file ^ " under the /3 magic is a miss") true
        (Cache.find (Cache.create ~persist ()) key = None))
    entries;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* The layout golden: a canonical rendering of the staged graph that
   [staged-] entries hold, for a named composition under a named
   composition, with its root call state restored as a counterexample
   search sees it — state terms in order, then rows as label/target pairs.
   Counterexamples are re-derived from stored staged graphs, so when this
   digest changes, what every spilled staged graph means has changed:
   bump [Cache.disk_magic] so old [.ltsc] files read as misses, then
   re-pin. (Hash-consing ids make raw [Marshal] bytes depend on
   construction order, so the rendering is digested, not the value.) *)
let staged_layout_digest = "f19c74aa768ce620752ef337db90514e"

let test_staged_layout_golden () =
  let loaded =
    Cspm.Elaborate.load_string (Helpers.read_fixture "call_state.csp")
  in
  let defs = loaded.Cspm.Elaborate.defs in
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let root = Proc.call (name, []) in
      let lts =
        match Reduce.compile_staged defs root with
        | Lts.Complete lts -> Reduce.with_root_call defs root lts
        | Lts.Partial _ -> Alcotest.failf "staged compile of %s was partial" name
      in
      check_string "the root is the call itself" name
        (Proc.to_string (Lts.state_term lts lts.Lts.initial));
      Printf.bprintf buf "%s initial %d\n" name lts.Lts.initial;
      Array.iteri
        (fun i t -> Printf.bprintf buf "%d %s\n" i (Proc.to_string t))
        lts.Lts.states;
      Array.iteri
        (fun i row ->
          Printf.bprintf buf "%d:" i;
          List.iter
            (fun (l, j) ->
              Printf.bprintf buf " %s>%d" (Event.label_to_string l) j)
            row;
          Buffer.add_char buf '\n')
        lts.Lts.transitions)
    [ "SYSTEM"; "PICK"; "CYCLE" ];
  let rendering = Buffer.contents buf in
  check_string
    (Printf.sprintf "staged layout digest of:\n%s" rendering)
    staged_layout_digest
    (Digest.to_hex (Digest.string rendering))

(* ------------------------------------------------------------------ *)
(* Hidden roots share one compile of what they hide                    *)
(* ------------------------------------------------------------------ *)

(* Two requirements over one system, each hiding what it does not
   mention: a run compiles SYSTEM once and derives both graphs from it,
   with the caller's cache and with the one a run keeps for itself. *)
let test_hidden_roots_compile_once () =
  let loaded =
    Cspm.Elaborate.load_string
      {|channel req, upd, ack
VMG = req -> upd -> VMG
ECU = upd -> ack -> ECU
SYSTEM = VMG [| {upd} |] ECU
REQ = req -> REQ
assert REQ [T= SYSTEM \ {upd, ack}
ACK = upd -> ack -> STOP
assert ACK [T= SYSTEM \ {req}
|}
  in
  let compiles config =
    let verdicts = ref [] in
    let names =
      spans_of_run (fun obs ->
          verdicts :=
            List.map
              (fun o -> render o.Cspm.Check.result)
              (Cspm.Check.run ~config:(Check_config.with_obs obs config) loaded))
    in
    ( !verdicts,
      List.length
        (List.filter (String.equal "reduce.compile_staged") names) )
  in
  let expect = [ "holds"; "fails" ] in
  let verdict_kinds vs =
    List.map (fun v -> List.hd (String.split_on_char ' ' v)) vs
  in
  List.iter
    (fun (what, config) ->
      let verdicts, n = compiles config in
      Alcotest.(check (list string))
        (what ^ ": verdicts") expect (verdict_kinds verdicts);
      check_int (what ^ ": one compile of SYSTEM") 1 n)
    [
      "no cache configured", Check_config.default;
      "a caller's cache", Check_config.(default |> with_cache (Cache.create ()));
    ]

(* Deadlock and divergence freedom search the explicit graph, which is
   derived from the same staged compile a refinement reads: a script that
   refines, deadlock-checks and divergence-checks one system, under
   different hide sets, compiles it once, whoever owns the cache. *)
let test_graph_checks_share_the_compile () =
  let loaded =
    Cspm.Elaborate.load_string
      {|channel req, upd, ack
VMG = req -> upd -> VMG
ECU = upd -> ack -> ECU
SYSTEM = VMG [| {upd} |] ECU
SPEC = req -> SPEC [] upd -> SPEC
assert SPEC [T= SYSTEM \ {ack}
assert SYSTEM :[deadlock free]
assert SYSTEM \ {upd} :[divergence free]
|}
  in
  List.iter
    (fun (what, config) ->
      List.iter
        (fun (runner, run) ->
          let verdicts = ref [] in
          let names =
            spans_of_run (fun obs ->
                verdicts :=
                  List.map
                    (fun o -> render o.Cspm.Check.result)
                    (run (Check_config.with_obs obs (config ())) loaded))
          in
          Alcotest.(check (list string))
            (what ^ ", " ^ runner ^ ": verdicts")
            [ "holds"; "holds"; "holds" ]
            (List.map
               (fun v -> List.hd (String.split_on_char ' ' v))
               !verdicts);
          check_int
            (what ^ ", " ^ runner ^ ": one compile of SYSTEM")
            1
            (List.length
               (List.filter (String.equal "reduce.compile_staged") names)))
        [
          "run", (fun config loaded -> Cspm.Check.run ~config loaded);
          ( "run_seq",
            fun config loaded -> fst (Cspm.Check.run_seq ~config loaded) );
        ])
    [
      "no cache configured", (fun () -> Check_config.default);
      ( "a caller's cache",
        fun () -> Check_config.(default |> with_cache (Cache.create ())) );
    ]

(* A run keeps a cache of its own only for assertions that share a
   system. Two refinements of different systems against one spec share
   nothing a hidden body could: without a caller's cache each normalises
   the spec itself, as a run without any cache does; with one, the second
   finds the first's normal form. *)
let test_unshared_runs_keep_no_cache () =
  let loaded =
    Cspm.Elaborate.load_string
      {|channel a, b
SPEC = a -> SPEC [] b -> SPEC
P = a -> P
Q = b -> Q
assert SPEC [T= P
assert SPEC [T= Q
|}
  in
  let normalisations run =
    List.length
      (List.filter (String.equal "normalise") (spans_of_run run))
  in
  let config obs = function
    | `None -> Check_config.(default |> with_obs obs)
    | `Fresh ->
      Check_config.(default |> with_obs obs |> with_cache (Cache.create ()))
  in
  List.iter
    (fun (what, cache, want) ->
      check_int (what ^ ": run") want
        (normalisations (fun obs ->
             ignore (Cspm.Check.run ~config:(config obs cache) loaded)));
      check_int (what ^ ": run_seq") want
        (normalisations (fun obs ->
             ignore (Cspm.Check.run_seq ~config:(config obs cache) loaded))))
    [ "no cache configured", `None, 2; "a caller's cache", `Fresh, 1 ]

(* The fixture's passing assertions report what the build that compiled
   every hidden term on its own reported. *)
let test_hidden_system_stats () =
  let loaded =
    Cspm.Elaborate.load_string (Helpers.read_fixture "hidden_system.csp")
  in
  let expected =
    [
      0, (2, 2, 2, 1, [ "dead", 18, 18; "tau", 18, 9; "bisim", 9, 2 ]);
      2, (18, 2, 18, 4, [ "tau", 18, 18; "bisim", 18, 18 ]);
      4, (2, 2, 2, 1, [ "dead", 18, 18; "tau", 18, 9; "bisim", 9, 2 ]);
    ]
  in
  let render_stats (impl, spec, pairs, frontier, reductions) =
    Printf.sprintf "impl %d spec %d pairs %d frontier %d [%s]" impl spec
      pairs frontier
      (String.concat "; "
         (List.map
            (fun (p, b, a) -> Printf.sprintf "%s %d>%d" p b a)
            reductions))
  in
  List.iter
    (fun config ->
      let outcomes = Array.of_list (Cspm.Check.run ~config loaded) in
      check_int "five assertions" 5 (Array.length outcomes);
      List.iter
        (fun (i, want) ->
          match outcomes.(i).Cspm.Check.result with
          | Refine.Holds s ->
            check_string
              (Printf.sprintf "assertion %d's stats" i)
              (render_stats want)
              (render_stats
                 ( s.Refine.impl_states,
                   s.Refine.spec_nodes,
                   s.Refine.pairs,
                   s.Refine.peak_frontier,
                   s.Refine.reductions ))
          | r -> Alcotest.failf "assertion %d: %s" i (render r))
        expected)
    [
      Check_config.default;
      Check_config.(default |> with_cache (Cache.create ()));
    ]

(* ------------------------------------------------------------------ *)
(* LRU bounding                                                        *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  (* a cache bounded below the workload's footprint must evict, keep its
     resident count under the bound, and keep answering correctly *)
  let cache = Cache.create ~max_resident_states:8 () in
  let defs = Helpers.make_defs () in
  let spec = Proc.run (Eventset.chan "a") in
  List.iter
    (fun n ->
      let rec chain i =
        if i = 0 then Proc.stop else Helpers.send "a" (i mod 3) (chain (i - 1))
      in
      check_string "bounded cache still answers" "holds"
        (render
           (Refine.check
              ~config:Check_config.(default |> with_cache cache)
              defs ~spec ~impl:(chain n))))
    [ 3; 4; 5; 6; 3 ];
  let s = Cache.stats cache in
  check_bool "something was evicted" true (s.Cache.evictions > 0);
  check_bool
    (Printf.sprintf "residency respects the bound (%d states)"
       s.Cache.resident_states)
    true (s.Cache.resident_states <= 8)

(* ------------------------------------------------------------------ *)
(* Marshalling round trip                                              *)
(* ------------------------------------------------------------------ *)

let test_reintern_restores_identity () =
  let p =
    Proc.ext
      ( Helpers.send "a" 0 (Proc.call ("X", [])),
        Proc.hide (Helpers.send "b" 1 Proc.skip, Eventset.chan "b") )
  in
  let copy : Proc.t = Marshal.from_string (Marshal.to_string p []) 0 in
  check_bool "marshalling loses physical identity" false (copy == p);
  let back = Cache.reintern_proc copy in
  check_bool "reinterning restores it" true (back == p)

(* ------------------------------------------------------------------ *)
(* One cache, many checking domains                                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_shared_cache () =
  (* the daemon's shape: concurrent checks race find/add on one cache
     over the same keys. Every verdict must come back correct, and the
     counters must account for every lookup. *)
  let cache = Cache.create () in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let impls =
    [|
      Helpers.send "a" 0 (Helpers.send "b" 1 Proc.stop);
      Helpers.send "b" 0 (Helpers.send "a" 2 Proc.stop);
      Proc.inter (Helpers.send "a" 1 Proc.stop, Helpers.send "b" 2 Proc.stop);
    |]
  in
  let worker () =
    (* each domain builds its own environment — the digests are content,
       so the keys still collide across domains, which is the race *)
    let defs = Helpers.make_defs () in
    Array.to_list
      (Array.init 9 (fun i ->
           render
             (Refine.check
                ~config:Check_config.(default |> with_cache cache)
                defs ~spec
                ~impl:impls.(i mod Array.length impls))))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d ->
      List.iter
        (fun verdict -> check_string "every racing verdict holds" "holds" verdict)
        (Domain.join d))
    domains;
  let s = Cache.stats cache in
  check_bool "the racing domains shared entries" true (s.Cache.hits > 0);
  check_bool "the cache retained the shared graphs" true
    (s.Cache.resident_entries > 0)

(* ------------------------------------------------------------------ *)
(* A lazily normalised spec, shared                                    *)
(* ------------------------------------------------------------------ *)

(* The ecu-scale shape: [n] request/response pairs interleaved, against
   the interleaving of their specifications. The full normal form has
   3^n nodes, of which one implementation reaches 2^n. The
   implementations send different requests, so they reach different
   parts of the normal form, and FAULTY's last ECU answers wrongly. *)
let ecu_script n =
  let b = Buffer.create 2048 in
  let add fmt = Printf.bprintf b fmt in
  for i = 0 to n - 1 do
    add "channel req%d, rsp%d : {0..1}\n" i i;
    add "SPEC%d = req%d?x -> rsp%d!x -> SPEC%d\n" i i i i;
    add "ECU%d = req%d?x -> rsp%d!x -> ECU%d\n" i i i i;
    add "BAD%d = req%d?x -> rsp%d!(1 - x) -> BAD%d\n" i i i i;
    add "VMG%d(v) = req%d!v -> rsp%d?y -> VMG%d(v)\n" i i i i
  done;
  let join f = String.concat " ||| " (List.init n f) in
  add "SPEC = %s\n" (join (Printf.sprintf "SPEC%d"));
  let system name request ecu =
    add "%s = %s\n" name
      (join (fun i ->
           Printf.sprintf "(VMG%d(%d) [| {| req%d, rsp%d |} |] %s%d)" i
             (request i) i i (ecu i) i))
  in
  system "ZEROS" (fun _ -> 0) (fun _ -> "ECU");
  system "ONES" (fun _ -> 1) (fun _ -> "ECU");
  system "MIXED" (fun i -> i mod 2) (fun _ -> "ECU");
  system "FAULTY" (fun i -> i mod 2) (fun i ->
      if i = n - 1 then "BAD" else "ECU");
  Buffer.contents b

let ecu_defs () =
  (Cspm.Elaborate.load_string (ecu_script 6)).Cspm.Elaborate.defs
let ecu_spec = Proc.call ("SPEC", [])

(* Everything a check reports that must not depend on what other checks
   materialised: the counts, the counterexample, and the checkpoint. *)
let render_exact = function
  | Refine.Holds s ->
    Printf.sprintf "holds impl=%d spec=%d pairs=%d" s.Refine.impl_states
      s.Refine.spec_nodes s.Refine.pairs
  | Refine.Fails cex ->
    Format.asprintf "fails %a" Refine.pp_counterexample cex
  | Refine.Inconclusive (s, hint) ->
    Format.asprintf "inconclusive impl=%d spec=%d pairs=%d %a%s"
      s.Refine.impl_states s.Refine.spec_nodes s.Refine.pairs
      Refine.pp_resume_hint hint
      (match hint.Refine.checkpoint with
       | Some cp ->
         Printf.sprintf " checkpoint %s explored=%d pairs=%d digest=%#x"
           cp.Search.pipeline cp.Search.explored cp.Search.pairs
           cp.Search.visited_digest
       | None -> "")

let check_ecu ?(config = Check_config.default) ?cache defs name =
  let config =
    match cache with
    | Some c -> Check_config.with_cache c config
    | None -> config
  in
  Refine.check ~config defs ~spec:ecu_spec ~impl:(Proc.call (name, []))

let test_domains_share_one_spec () =
  let impls = [ "ZEROS"; "ONES"; "MIXED"; "FAULTY" ] in
  let expected =
    let defs = ecu_defs () in
    List.map (fun name -> render_exact (check_ecu defs name)) impls
  in
  check_bool "FAULTY fails" true
    (Helpers.contains (List.nth expected 3) "fails");
  for _round = 1 to 3 do
    let cache = Cache.create () in
    (* one check first, so the four racing ones share its normal form *)
    ignore (check_ecu ~cache (ecu_defs ()) "ZEROS");
    let domains =
      List.map
        (fun name ->
          Domain.spawn (fun () ->
              render_exact (check_ecu ~cache (ecu_defs ()) name)))
        impls
    in
    List.iter2
      (fun want d ->
        check_string "a racing render equals its sequential uncached one"
          want (Domain.join d))
      expected domains
  done

let test_warm_equals_cold () =
  let cut reductions =
    Check_config.(default |> with_reductions reductions |> with_max_pairs 20)
  in
  List.iter
    (fun (name, config) ->
      let defs = ecu_defs () in
      let uncached = check_ecu ~config defs name in
      let cold = check_ecu ~config ~cache:(Cache.create ()) defs name in
      (* ONES materialises part of the same normal form first, so the
         nodes this check reaches carry other ids than in a cold run *)
      let cache = Cache.create () in
      ignore (check_ecu ~cache defs "ONES");
      let warm = check_ecu ~config ~cache defs name in
      check_string "cold equals uncached" (render_exact uncached)
        (render_exact cold);
      check_string "warm equals cold" (render_exact cold) (render_exact warm);
      (* a checkpoint taken cold resumes against the warm normal form *)
      match cold with
      | Refine.Inconclusive (_, { Refine.checkpoint = Some checkpoint; _ }) ->
        let config = Check_config.with_max_pairs 1_000_000 config in
        let resumed =
          Refine.resume ~config:(Check_config.with_cache cache config)
            ~checkpoint defs ~spec:ecu_spec ~impl:(Proc.call (name, []))
        in
        check_string "the cold checkpoint resumes warm"
          (render_exact (check_ecu ~config defs name))
          (render_exact resumed)
      | _ -> ())
    [
      "MIXED", Check_config.default;
      "FAULTY", Check_config.default;
      "MIXED", cut [];
      "MIXED", cut Reduce.default_pipeline;
    ]

let test_spec_budget () =
  let defs = ecu_defs () in
  let budget n =
    Check_config.(default |> with_max_states n |> with_max_pairs 1_000_000)
  in
  (match check_ecu ~config:(budget 10) defs "ZEROS" with
   | Refine.Inconclusive (s, hint) ->
     check_bool "the spec's share of the budget ran out" true
       (hint.Refine.exhausted = Refine.States);
     check_int "at the budget" 10 s.Refine.spec_nodes
   | other ->
     Alcotest.failf "expected a state budget: %s" (render_exact other));
  (* 3^6 nodes in all, but only 65 reached: a verdict *)
  (match check_ecu ~config:(budget 100) defs "ZEROS" with
   | Refine.Holds s -> check_int "the reached nodes" 65 s.Refine.spec_nodes
   | other ->
     Alcotest.failf "a spec bigger than the budget can still hold: %s"
       (render_exact other));
  (* an unbounded tau chain: the first closure alone is over budget *)
  let loaded =
    Cspm.Elaborate.load_string
      "channel a : {0..1}\nDRIFT(n) = STOP |~| DRIFT(n + 1)\n"
  in
  let defs = loaded.Cspm.Elaborate.defs in
  let drift = Proc.call ("DRIFT", [ Expr.int 0 ]) in
  List.iter
    (fun (what, result) ->
      match result with
      | Refine.Inconclusive (_, hint) ->
        check_bool (what ^ ": a state budget") true
          (hint.Refine.exhausted = Refine.States)
      | other -> Alcotest.failf "%s: %s" what (render_exact other))
    [
      ( "traces",
        Refine.check ~config:(budget 50) defs ~spec:drift ~impl:Proc.stop );
      ( "cached failures",
        Refine.check
          ~config:(Check_config.with_cache (Cache.create ()) (budget 50))
          ~model:Refine.Failures defs ~spec:drift ~impl:Proc.stop );
      "determinism", Refine.deterministic ~config:(budget 50) defs drift;
    ];
  check_bool "trace checking reports the budget" true
    (Result.is_error (Tracecheck.compile ~config:(budget 50) defs drift))

let test_normal_form_weight_moves () =
  let cache = Cache.create () in
  let defs = ecu_defs () in
  ignore (check_ecu ~cache defs "ZEROS");
  let resident () = (Cache.stats cache).Cache.resident_states in
  let before = resident () in
  let key =
    Cache.spec_key ~max_states:Check_config.default.Check_config.max_states
      defs ecu_spec
  in
  match Cache.find cache key with
  | Some (Cache.Norm_spec norm) ->
    let reached = Normalise.num_states norm in
    Normalise.force
      (Normalise.session ~step:(Semantics.make_cached defs) norm);
    check_int "the cached normal form's growth is resident"
      (before + Normalise.num_states norm - reached)
      (resident ())
  | Some _ | None -> Alcotest.fail "the spec's normal form is not cached"

let test_normal_form_spills_what_was_built () =
  let dir = temp_dir () in
  let persist =
    {
      Cache.dir;
      write = (fun ~path text -> Serve.Fsio.atomic_write ~path text);
    }
  in
  let defs = ecu_defs () in
  let key =
    Cache.spec_key ~max_states:Check_config.default.Check_config.max_states
      defs ecu_spec
  in
  let cold =
    render_exact (check_ecu ~cache:(Cache.create ~persist ()) defs "ZEROS")
  in
  let spilled cache =
    match Cache.find cache key with
    | Some (Cache.Norm_spec norm) -> Normalise.num_states norm
    | Some _ | None -> Alcotest.fail "no normal form in the spill directory"
  in
  check_int "the spill holds the states the search built" 65
    (spilled (Cache.create ~persist ()));
  (* a restarted cache resumes from the spill, and what MIXED adds to it
     is spilled again *)
  let restarted = Cache.create ~persist () in
  check_string "a warm check from disk reports what the cold one did" cold
    (render_exact (check_ecu ~cache:restarted defs "ZEROS"));
  ignore (check_ecu ~cache:restarted defs "MIXED");
  check_bool "the grown normal form was spilled again" true
    (spilled (Cache.create ~persist ()) > 65);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let suite =
  ( "cache",
    [
      QCheck_alcotest.to_alcotest cached_equals_uncached;
      Alcotest.test_case "digests invalidate exactly the reachable edits"
        `Quick test_digest_reachability;
      Alcotest.test_case "a declaration after a key was taken changes it"
        `Quick test_declarations_invalidate_keys;
      Alcotest.test_case "a copy keys like its source until either is extended"
        `Quick test_copy_keys_like_source;
      Alcotest.test_case "defining a reachable name changes the key" `Quick
        test_define_proc_keys_by_reachability;
      Alcotest.test_case "an edit misses only the component that reaches it"
        `Quick test_edit_invalidates_only_affected;
      Alcotest.test_case "a warm re-check skips compile/normalise/reduce"
        `Quick test_warm_run_skips_pipeline_spans;
      Alcotest.test_case "a fresh cache starts warm from the spill directory"
        `Quick test_persistence_across_caches;
      Alcotest.test_case "every bit flip in a spilled entry is a miss" `Quick
        test_flipped_entries_are_misses;
      Alcotest.test_case "LRU eviction respects the resident-state bound"
        `Quick test_lru_eviction;
      Alcotest.test_case "reinterning restores hash-consing identity" `Quick
        test_reintern_restores_identity;
      Alcotest.test_case "domains share one lazily normalised spec" `Quick
        test_domains_share_one_spec;
      Alcotest.test_case "warm checks report what cold ones do" `Quick
        test_warm_equals_cold;
      Alcotest.test_case "the spec's budget counts reached nodes" `Quick
        test_spec_budget;
      Alcotest.test_case "a cached normal form weighs what it holds now"
        `Quick test_normal_form_weight_moves;
      Alcotest.test_case "a normal form spills what the checks built" `Quick
        test_normal_form_spills_what_was_built;
      Alcotest.test_case "concurrent domains share one cache coherently"
        `Quick test_concurrent_shared_cache;
      Alcotest.test_case "an entry of an older format version is a miss"
        `Quick test_old_format_is_a_miss;
      Alcotest.test_case "the staged graph layout is golden" `Quick
        test_staged_layout_golden;
      Alcotest.test_case "freedom checks share a refinement's compile" `Quick
        test_graph_checks_share_the_compile;
      Alcotest.test_case "hidden roots of one system compile it once" `Quick
        test_hidden_roots_compile_once;
      Alcotest.test_case "hidden roots report the stats they did" `Quick
        test_hidden_system_stats;
      Alcotest.test_case "runs that share no system keep no cache" `Quick
        test_unshared_runs_keep_no_cache;
    ] )
