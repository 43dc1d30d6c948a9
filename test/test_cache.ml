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
  check_bool "the cold run compiled" true (has cold "lts.compile");
  check_bool "the cold run normalised" true (has cold "normalise");
  let warm = spans_of_run run in
  check_bool "the warm run searched" true (has warm "search.");
  check_bool "the warm run did not compile" false (has warm "lts.compile");
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

let suite =
  ( "cache",
    [
      QCheck_alcotest.to_alcotest cached_equals_uncached;
      Alcotest.test_case "digests invalidate exactly the reachable edits"
        `Quick test_digest_reachability;
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
      Alcotest.test_case "concurrent domains share one cache coherently"
        `Quick test_concurrent_shared_cache;
    ] )
