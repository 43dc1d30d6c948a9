(* All four checks are thin configurations of the shared product-search
   engine in Search: they pick a state source (terms interned on the fly,
   or a precompiled graph) and a refusal/divergence mode, and the engine
   owns interning, parents, budgets, and trace reconstruction. *)

type violation = Search.violation =
  | Trace_violation of Event.label
  | Refusal_violation of {
      offered : Event.label list;
      acceptances : Event.label list list;
    }
  | Deadlock
  | Divergence

type counterexample = Search.counterexample = {
  trace : Event.label list;
  violation : violation;
  impl_state : Proc.t;
}

type stats = Search.stats = {
  impl_states : int;
  spec_nodes : int;
  pairs : int;
  wall_s : float;
  states_per_sec : float;
  peak_frontier : int;
  reductions : (string * int * int) list;
}

type budget_kind = Search.budget_kind =
  | Deadline
  | States
  | Pairs
  | Interrupt
  | Memory

type resume_hint = Search.resume_hint = {
  frontier : int;
  deepest : Event.label list;
  exhausted : budget_kind;
  checkpoint : Search.checkpoint option;
}

type result = Search.result =
  | Holds of stats
  | Fails of counterexample
  | Inconclusive of stats * resume_hint

type model =
  | Traces
  | Failures
  | Failures_divergences

let visible_trace = Search.visible_trace

(* Partial specification compilation cannot support a verdict: report it
   as inconclusive, attributing the exhausted budget. *)
let spec_inconclusive progress =
  let exhausted =
    match progress.Lts.reason with `States -> States | `Deadline -> Deadline
  in
  Inconclusive
    ( Search.make_stats ~impl_states:0 ~spec_nodes:progress.Lts.explored
        ~pairs:0 (),
      {
        frontier = progress.Lts.frontier;
        deepest = [];
        exhausted;
        checkpoint = None;
      } )

(* The model a refusal mode decides under, for gating reduction passes.
   [`Full] (the determinism check) compares acceptance sets of the same
   process against itself — no reduction pass is proven
   verdict-preserving for it, so it always takes the raw path. *)
let model_of_refusal = function
  | `None -> Some `Traces
  | `Acceptances -> Some `Failures
  | `Full -> None

let pass_stat_triples =
  List.map (fun s -> s.Reduce.pass, s.Reduce.states_before, s.Reduce.states_after)

(* Cache-fronted compilation. A hit returns the finished artifact without
   opening any compile/normalise span — the warm path does no graph work
   at all. Only [Complete] results are ever stored: a [Partial] graph
   reflects the budgets of the run that produced it, not the content its
   key names. *)

(* Compile a term to an explicit graph via [Lts.compile_budgeted]. *)
let cached_graph ~(config : Check_config.t) ?stop_at defs proc =
  let compile () =
    Lts.compile_budgeted ~max_states:config.max_states ?stop_at
      ~obs:config.obs defs proc
  in
  match config.cache with
  | None -> compile ()
  | Some cache ->
    let key = Cache.lts_key ~max_states:config.max_states defs proc in
    (match Cache.find cache key with
     | Some (Cache.Lts_graph g) -> Lts.Complete g
     | Some _ | None ->
       let r = compile () in
       (match r with
        | Lts.Complete g -> Cache.add cache key (Cache.Lts_graph g)
        | Lts.Partial _ -> ());
       r)

(* Compile and normalise a specification. Returns the normal form plus the
   key it is cached under (feeding the reduced-graph key), or the partial
   progress if the spec ran out of budget. *)
let cached_spec ~(config : Check_config.t) ?stop_at defs spec =
  let obs = config.obs in
  let compile () =
    match
      Lts.compile_budgeted ~max_states:config.max_states ?stop_at ~obs defs
        spec
    with
    | Lts.Partial (_, progress) -> Error progress
    | Lts.Complete lts -> Ok (lts, Normalise.normalise ~obs lts)
  in
  match config.cache with
  | None -> Result.map (fun (_, norm) -> norm, None) (compile ())
  | Some cache ->
    let key = Cache.spec_key ~max_states:config.max_states defs spec in
    (match Cache.find cache key with
     | Some (Cache.Norm_spec (_, norm)) -> Ok (norm, Some key)
     | Some _ | None ->
       Result.map
         (fun (lts, norm) ->
           Cache.add cache key (Cache.Norm_spec (lts, norm));
           norm, Some key)
         (compile ()))

let with_reduction_stats reductions = function
  | Holds stats -> Holds { stats with reductions }
  | Inconclusive (stats, hint) -> Inconclusive ({ stats with reductions }, hint)
  | Fails _ as r -> r

let product_check ~(config : Check_config.t) ~refusal_mode ~max_pairs ?stop_at
    ?resume_from defs ~spec ~impl =
  let obs = config.obs in
  match cached_spec ~config ?stop_at defs spec with
  | Error progress -> spec_inconclusive progress
  | Ok (norm, spec_cache_key) ->
    (* The unreduced engine: implementation states generated on the fly.
       Used when no pass applies, when the staged compile degrades, and to
       re-derive counterexamples found on a reduced graph. *)
    let raw_search ?resume_from () =
      let fenv = Defs.fenv defs in
      let tys = Defs.ty_lookup defs in
      let impl0 = Proc.const_fold ~tys fenv impl in
      let source =
        Search.proc_source ~interner:config.interner
          ~step:(Semantics.make_cached ~obs defs)
          impl0
      in
      Search.product ~refusal:refusal_mode ~max_pairs ?stop_at ~obs
        ?progress:config.progress
        ?cancel:config.cancel ?memory_limit_mb:config.memory_limit_mb
        ?resume_from ?resume_deadline:config.deadline ~norm source
    in
    let pipeline =
      match model_of_refusal refusal_mode with
      | None -> []
      | Some model -> Reduce.effective ~model config.reductions
    in
    (* A checkpoint names the engine that recorded it. One recorded by
       the raw engine — including the raw fallback of a reduced run whose
       staged compile ran out of deadline — resumes on the raw path
       regardless of [config.reductions]; one recorded by a reduced
       search must be resumed by the same pipeline, and [Search.product]
       raises [Resume_mismatch] below if it is not. *)
    let pipeline =
      match resume_from with
      | Some cp when String.equal cp.Search.pipeline "none" -> []
      | Some _ | None -> pipeline
    in
    (match pipeline, model_of_refusal refusal_mode with
     | [], _ | _, None -> raw_search ?resume_from ()
     | pipeline, Some model ->
       let fp = Reduce.fingerprint pipeline in
       (* Key the staged and reduced artifacts when a cache is configured.
          The reduced key includes the spec key: the dead pass eliminates
          events against the spec's normal-form alphabet, so the same
          implementation reduced against a different spec is a different
          artifact. *)
       let cache_keys =
         match config.cache, spec_cache_key with
         | Some cache, Some spec_key ->
           let impl_key =
             Cache.impl_key ~max_states:config.max_states defs impl
           in
           let reduced_key =
             Cache.reduced_key ~model ~pipeline ~spec:spec_key
               ~impl:impl_key
           in
           Some (cache, impl_key, reduced_key)
         | _ -> None
       in
       let reduced_hit =
         match cache_keys with
         | Some (cache, _, reduced_key) ->
           (match Cache.find cache reduced_key with
            | Some (Cache.Reduced (g, stats)) -> Some (g, stats)
            | Some _ | None -> None)
         | None -> None
       in
       let reduction =
         match reduced_hit with
         | Some _ -> reduced_hit
         | None ->
           let staged () =
             match resume_from with
             | Some _ ->
               (* A checkpoint recorded against this pipeline implies the
                  staged compile completed; rebuild it deterministically,
                  with no deadline or cancellation mid-compile. *)
               Reduce.compile_staged ~max_states:config.max_states ~obs
                 defs impl
             | None ->
               Reduce.compile_staged ~max_states:config.max_states ?stop_at
                 ?cancel:config.cancel ~obs defs impl
           in
           let compiled =
             match cache_keys with
             | Some (cache, impl_key, _) ->
               (match Cache.find cache impl_key with
                | Some (Cache.Lts_graph g) -> Lts.Complete g
                | Some _ | None ->
                  let r = staged () in
                  (match r with
                   | Lts.Complete g ->
                     Cache.add cache impl_key (Cache.Lts_graph g)
                   | Lts.Partial _ -> ());
                  r)
             | None -> staged ()
           in
           (match compiled with
            | Lts.Partial _ -> None
            | Lts.Complete impl_lts ->
              let reduced, pass_stats =
                Reduce.apply ~obs ~model ~norm pipeline impl_lts
              in
              (match cache_keys with
               | Some (cache, _, reduced_key) ->
                 Cache.add cache reduced_key
                   (Cache.Reduced (reduced, pass_stats))
               | None -> ());
              Some (reduced, pass_stats))
       in
       (match reduction with
        | None ->
          (* Budget ran out mid-decomposition: fall back to the raw
             engine, which degrades gracefully (and can still find an
             early counterexample without the full graph). *)
          raw_search ?resume_from ()
        | Some (reduced, pass_stats) ->
          let por =
            match refusal_mode with
            | `None when List.memq Reduce.Por pipeline ->
              Some (Reduce.por_hooks ~norm reduced)
            | _ -> None
          in
          let source = Search.lts_source ~check_divergence:false reduced in
          let result =
            Search.product ~refusal:refusal_mode ~max_pairs ?stop_at ~obs
              ?progress:config.progress
              ?cancel:config.cancel ?memory_limit_mb:config.memory_limit_mb
              ?resume_from ?resume_deadline:config.deadline ?por
              ~pipeline:fp ~norm source
          in
          (match result with
           | Fails _ ->
             (* Counterexample canonicalisation: the reduced graph proves
                a violation exists, but its trace and state term reflect
                the reduced shape. Re-derive with the raw engine so the
                reported counterexample is byte-identical to
                [--reductions none]; if the raw run cannot reach a
                verdict within the budgets, keep the reduced one. *)
             (match raw_search () with
              | Fails _ as raw -> raw
              | Holds _ | Inconclusive _ -> result)
           | Holds _ | Inconclusive _ ->
             with_reduction_stats (pass_stat_triples pass_stats) result)))

(* Failures-divergences refinement: both sides are compiled to explicit
   graphs (divergence detection needs the tau-SCCs of the implementation),
   then the product is explored. *)
let fd_check ~(config : Check_config.t) ~max_pairs ?stop_at ?resume_from defs
    ~spec ~impl =
  let obs = config.obs in
  match cached_spec ~config ?stop_at defs spec with
  | Error progress -> spec_inconclusive progress
  | Ok (norm, spec_cache_key) ->
    (match cached_graph ~config ?stop_at defs impl with
     | Lts.Partial (_, progress) ->
       (* Divergence detection needs the full tau graph of the
          implementation; a partial compile cannot support a verdict. *)
       let exhausted =
         match progress.Lts.reason with
         | `States -> States
         | `Deadline -> Deadline
       in
       Inconclusive
         ( Search.make_stats ~impl_states:progress.Lts.explored
             ~spec_nodes:(Normalise.num_nodes norm) ~pairs:0 (),
           {
             frontier = progress.Lts.frontier;
             deepest = [];
             exhausted;
             checkpoint = None;
           } )
     | Lts.Complete impl_lts ->
       let search ~pipeline lts =
         let source = Search.lts_source ~check_divergence:true lts in
         Search.product ~refusal:`Acceptances ~max_pairs ?stop_at ~obs
           ?progress:config.progress
           ?cancel:config.cancel ?memory_limit_mb:config.memory_limit_mb
           ?resume_from ?resume_deadline:config.deadline ~pipeline ~norm
           source
       in
       let effective =
         match resume_from with
         | Some cp when String.equal cp.Search.pipeline "none" -> []
         | Some _ | None -> Reduce.effective ~model:`Fd config.reductions
       in
       (match effective with
        | [] -> search ~pipeline:"none" impl_lts
        | pipeline ->
          (* FD reduced graphs are keyed like the staged path's, except
             the implementation component comes from [cached_graph]'s
             namespace ([lts_key]) — state terms differ between the raw
             and staged compilers, so the namespaces must not mix. *)
          let reduced_cache_key =
            match config.cache, spec_cache_key with
            | Some _, Some spec_key ->
              Some
                (Cache.reduced_key ~model:`Fd ~pipeline ~spec:spec_key
                   ~impl:
                     (Cache.lts_key ~max_states:config.max_states defs impl))
            | _ -> None
          in
          let reduced, pass_stats =
            match
              match config.cache, reduced_cache_key with
              | Some cache, Some key -> Cache.find cache key
              | _ -> None
            with
            | Some (Cache.Reduced (g, stats)) -> g, stats
            | Some _ | None ->
              let reduced, pass_stats =
                Reduce.apply ~obs ~model:`Fd ~norm pipeline impl_lts
              in
              (match config.cache, reduced_cache_key with
               | Some cache, Some key ->
                 Cache.add cache key (Cache.Reduced (reduced, pass_stats))
               | _ -> ());
              reduced, pass_stats
          in
          (match search ~pipeline:(Reduce.fingerprint pipeline) reduced with
           | Fails _ as result ->
             (* Canonicalise the counterexample on the unreduced graph
                (see [product_check]); the raw search ignores the
                checkpoint of the reduced one. *)
             let raw =
               let source =
                 Search.lts_source ~check_divergence:true impl_lts
               in
               Search.product ~refusal:`Acceptances ~max_pairs ?stop_at ~obs
                 ?progress:config.progress ?cancel:config.cancel
                 ?memory_limit_mb:config.memory_limit_mb
                 ?resume_deadline:config.deadline ~norm source
             in
             (match raw with
              | Fails _ -> raw
              | Holds _ | Inconclusive _ -> result)
           | result ->
             with_reduction_stats (pass_stat_triples pass_stats) result)))

let stop_at_of_deadline = function
  | None -> None
  | Some seconds -> Some (Obs.now () +. seconds)

let check ?(config = Check_config.default) ?model ?max_states ?deadline defs
    ~spec ~impl =
  (* the convenience arguments override the record's fields *)
  let config =
    match max_states with
    | Some n -> Check_config.with_max_states n config
    | None -> config
  in
  let config =
    match deadline with
    | Some d -> Check_config.with_deadline d config
    | None -> config
  in
  let model = Option.value model ~default:Traces in
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  let stop_at = stop_at_of_deadline config.deadline in
  match model with
  | Traces ->
    product_check ~config ~refusal_mode:`None ~max_pairs ?stop_at defs ~spec
      ~impl
  | Failures ->
    product_check ~config ~refusal_mode:`Acceptances ~max_pairs ?stop_at defs
      ~spec ~impl
  | Failures_divergences ->
    fd_check ~config ~max_pairs ?stop_at defs ~spec ~impl

let traces_refines ?config defs ~spec ~impl =
  check ?config ~model:Traces defs ~spec ~impl

let failures_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures defs ~spec ~impl

let fd_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures_divergences defs ~spec ~impl

(* Resuming recompiles the specification (and, for FD, the implementation)
   without a deadline — a checkpoint only exists if those compiles
   completed, and they are deterministic — then hands the checkpoint to
   the engine, which fast-forwards the replay and arms [config.deadline]
   (or the checkpoint's unconsumed budget) at the crossing point. *)
let resume ?(config = Check_config.default) ?model ~checkpoint defs ~spec
    ~impl =
  let model = Option.value model ~default:Traces in
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  match model with
  | Traces ->
    product_check ~config ~refusal_mode:`None ~max_pairs
      ~resume_from:checkpoint defs ~spec ~impl
  | Failures ->
    product_check ~config ~refusal_mode:`Acceptances ~max_pairs
      ~resume_from:checkpoint defs ~spec ~impl
  | Failures_divergences ->
    fd_check ~config ~max_pairs ~resume_from:checkpoint defs ~spec ~impl

let resume_deterministic ?(config = Check_config.default) ~checkpoint defs
    proc =
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  product_check ~config ~refusal_mode:`Full ~max_pairs
    ~resume_from:checkpoint defs ~spec:proc ~impl:proc

let lts_inconclusive progress =
  let exhausted =
    match progress.Lts.reason with `States -> States | `Deadline -> Deadline
  in
  Inconclusive
    ( Search.make_stats ~impl_states:progress.Lts.explored ~spec_nodes:0
        ~pairs:0 (),
      {
        frontier = progress.Lts.frontier;
        deepest = [];
        exhausted;
        checkpoint = None;
      } )

(* Deadlock/divergence freedom: compile the graph, find the offending
   states, and BFS a shortest path to one. The offender set is looked up
   through a bitset, not a list scan. *)
let bad_state_check ~violation ~find ~(config : Check_config.t) defs proc =
  let t0 = Obs.now () in
  match
    cached_graph ~config
      ?stop_at:(stop_at_of_deadline config.deadline) defs proc
  with
  | Lts.Partial (_, progress) -> lts_inconclusive progress
  | Lts.Complete lts ->
    (match find lts with
     | [] ->
       Holds
         (Search.make_stats
            ~wall_s:(Obs.now () -. t0)
            ~impl_states:(Lts.num_states lts) ~spec_nodes:0 ~pairs:0 ())
     | bad ->
       let bits = Array.make (max 1 (Lts.num_states lts)) false in
       List.iter (fun i -> bits.(i) <- true) bad;
       (match Lts.path_to lts (fun i -> bits.(i)) with
        | None -> invalid_arg "Refine.check: flagged state has no path"
        | Some (labels, i) ->
          Fails
            {
              trace = visible_trace labels;
              violation;
              impl_state = Lts.state_term lts i;
            }))

let deadlock_free ?(config = Check_config.default) defs proc =
  bad_state_check ~violation:Deadlock ~find:Lts.deadlocks ~config defs proc

let divergence_free ?(config = Check_config.default) defs proc =
  bad_state_check ~violation:Divergence ~find:Lts.divergences ~config defs
    proc

let deterministic ?(config = Check_config.default) defs proc =
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  product_check ~config ~refusal_mode:`Full ~max_pairs
    ?stop_at:(stop_at_of_deadline config.deadline) defs ~spec:proc ~impl:proc

let holds = function
  | Holds _ -> true
  | Fails _ | Inconclusive _ -> false

let inconclusive = function
  | Inconclusive _ -> true
  | Holds _ | Fails _ -> false

let pp_labels ppf labels =
  match labels with
  | [] -> Format.pp_print_string ppf "<>"
  | _ ->
    Format.fprintf ppf "<%a>"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Event.pp_label)
      labels

let pp_violation ppf = function
  | Trace_violation l ->
    Format.fprintf ppf "trace violation: implementation performs %a"
      Event.pp_label l
  | Refusal_violation { offered; acceptances } ->
    Format.fprintf ppf
      "refusal violation: stable state offers %a but the specification \
       requires one of %a"
      pp_labels offered
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " / ")
         pp_labels)
      acceptances
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Divergence -> Format.pp_print_string ppf "divergence (tau cycle)"

let pp_counterexample ppf cex =
  Format.fprintf ppf "@[<v 2>counterexample:@ trace = %a@ %a@ state = %a@]"
    pp_labels cex.trace pp_violation cex.violation Proc.pp cex.impl_state

let pp_budget_kind ppf = function
  | Deadline -> Format.pp_print_string ppf "deadline"
  | States -> Format.pp_print_string ppf "state budget"
  | Pairs -> Format.pp_print_string ppf "pair budget"
  | Interrupt -> Format.pp_print_string ppf "interrupted"
  | Memory -> Format.pp_print_string ppf "memory watermark"

let pp_resume_hint ppf hint =
  (* the deepest trace can be thousands of events long on a budget-limited
     run — show its depth and only the last few steps *)
  let depth = List.length hint.deepest in
  let max_shown = 12 in
  if depth <= max_shown then
    Format.fprintf ppf "%a exhausted; frontier = %d, deepest trace = %a"
      pp_budget_kind hint.exhausted hint.frontier pp_labels hint.deepest
  else
    let tail =
      List.filteri (fun i _ -> i >= depth - max_shown) hint.deepest
    in
    Format.fprintf ppf
      "%a exhausted; frontier = %d, deepest trace (depth %d) ends <..., %a"
      pp_budget_kind hint.exhausted hint.frontier depth
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Event.pp_label)
      tail;
    Format.pp_print_string ppf ">"

let pp_stats ppf stats =
  Format.fprintf ppf "%d impl states, %d spec nodes, %d pairs" stats.impl_states
    stats.spec_nodes stats.pairs;
  if stats.wall_s > 0. then
    Format.fprintf ppf "; %.3fs, %.0f states/s, peak frontier %d" stats.wall_s
      stats.states_per_sec stats.peak_frontier

let pp_result ppf = function
  | Holds stats -> Format.fprintf ppf "holds (%a)" pp_stats stats
  | Fails cex -> Format.fprintf ppf "FAILS@ %a" pp_counterexample cex
  | Inconclusive (stats, hint) ->
    Format.fprintf ppf "INCONCLUSIVE (%a)@ %a" pp_stats stats pp_resume_hint
      hint
