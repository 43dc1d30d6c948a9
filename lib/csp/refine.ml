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

type budget_kind = Budget.kind =
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

(* The model a refusal mode decides under, for gating reduction passes.
   [`Full] (the determinism check) compares acceptance sets of the same
   process against itself — no reduction pass is proven
   verdict-preserving for it, so it always takes the raw path. *)
let model_of_refusal = function
  | `None -> Some `Traces
  | `Acceptances -> Some `Failures
  | `Full -> None

(* Cache-fronted compilation. A hit returns the stored artifact without
   opening any compile/normalise span. Only [Complete] graphs are ever
   stored: a [Partial] graph reflects the budgets of the run that
   produced it, not the content its key names. A normal form is stored
   as soon as it exists and keeps growing in the cache: it is exact as
   far as it goes, whatever budgets the checks that grew it ran under. *)

(* The unreduced staged graph of an implementation. Hiding at the root is
   applied to the graph of what it hides, so that body is what is
   compiled, or found in the cache's [staged-] entry keyed by the body:
   the assertions that name one system, under any hide sets, share its
   compile. *)
let staged_graph ~(config : Check_config.t) ~budget defs impl =
  let body, hidden = Reduce.split_hiding impl in
  let compile () =
    Reduce.compile_staged ~max_states:config.max_states ~budget
      ~obs:config.obs defs body
  in
  let body_graph =
    match config.cache with
    | None -> compile ()
    | Some cache ->
      let key = Cache.impl_key ~max_states:config.max_states defs body in
      (match Cache.find cache key with
       | Some (Cache.Lts_graph g) -> Lts.Complete g
       | Some _ | None ->
         let r = compile () in
         (match r with
          | Lts.Complete g -> Cache.add cache key (Cache.Lts_graph g)
          | Lts.Partial _ -> ());
         r)
  in
  match body_graph with
  | Lts.Complete g -> Lts.Complete (Reduce.hide_staged hidden g)
  | Lts.Partial _ as r -> r

(* The raw [Lts] compiler's graph up to state numbering: the staged
   graph with the root's call state restored. [Lts.renumber] numbers it
   as the raw compiler does, which FD checkpoints record and [--dot]
   prints. *)
let raw_graph ~config ~budget defs proc =
  match staged_graph ~config ~budget defs proc with
  | Lts.Complete g -> Lts.Complete (Reduce.with_root_call defs proc g)
  | Lts.Partial _ as r -> r

(* One check's stop conditions, built from its config, shared by its
   compile, its specification's normal form and its product search. A
   resumed check replays with the deadline unarmed: the search arms it at
   the crossing. *)
let budget ?resume_from (config : Check_config.t) =
  Budget.create ?deadline:config.deadline ~armed:(Option.is_none resume_from)
    ?cancel:config.cancel ?memory_limit_mb:config.memory_limit_mb ()

(* A resumed check compiles under no stop at all: a checkpoint exists
   only if that compile completed, and the compile is deterministic. *)
let compile_budget ?resume_from budget =
  match resume_from with Some _ -> Budget.create () | None -> budget

(* The one verdict of a budget that runs out outside the product search,
   in a compile or in the specification's normal form: none, and nothing
   explored that a search could resume. *)
let stopped { Lts.interned; frontier; reason } =
  Inconclusive
    ( Search.make_stats ~impl_states:interned ~spec_nodes:0 ~pairs:0 (),
      { frontier; deepest = []; exhausted = reason; checkpoint = None } )

let const_fold defs p =
  Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) p

(* Nothing is compiled up front: the search materialises the nodes it
   reaches. The key feeds the reduced-graph key. *)
let cached_spec ~(config : Check_config.t) ~budget ~step defs spec =
  let obs = config.obs and max_states = config.max_states in
  let fresh () =
    Normalise.create ~obs ~max_states ~budget ~step (const_fold defs spec)
  in
  match config.cache with
  | None -> fresh (), None
  | Some cache ->
    let key = Cache.spec_key ~max_states defs spec in
    (match Cache.find cache key with
     | Some (Cache.Norm_spec norm) ->
       Normalise.session ~obs ~max_states ~budget ~step norm, Some key
     | Some _ | None ->
       let session = fresh () in
       Cache.add cache key (Cache.Norm_spec (Normalise.form session));
       session, Some key)

(* Run a check against the specification's normal form, then spill what
   it materialised when the cache persists to disk. A budget that runs
   out outside the product search is [Error] of its kind. *)
let with_spec ~(config : Check_config.t) ~budget ~step defs spec check =
  match
    let norm, key = cached_spec ~config ~budget ~step defs spec in
    let result = check norm key in
    (match config.cache, key with
     | Some cache, Some key -> Cache.spill cache key
     | _ -> ());
    result
  with
  | result -> Ok result
  | exception Budget.Exhausted reason -> Error reason

(* The check's result, or the verdict of a stop outside its search. *)
let verdict = function
  | Ok result -> result
  | Error reason -> stopped { Lts.interned = 0; frontier = 1; reason }

(* One product search under the check's budgets and hooks. *)
let search ~(config : Check_config.t) ~refusal ~budget ?resume_from
    ?pipeline ~norm source =
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  Search.product ~refusal ~max_pairs ~budget ~obs:config.obs
    ?progress:config.progress ?resume_from ?pipeline ~norm source

(* The effective pipeline, unless a checkpoint names the engine that
   recorded it. One recorded by the raw engine — including the raw
   fallback of a reduced run whose staged compile ran out of states —
   resumes on the raw path regardless of [config.reductions]; one
   recorded by a reduced search must be resumed by the same pipeline,
   and [Search.product] raises [Resume_mismatch] if it is not. *)
let resumed_pipeline ?resume_from pipeline =
  match resume_from with
  | Some cp when String.equal cp.Search.pipeline "none" -> []
  | Some _ | None -> pipeline

(* The implementation reduced by [pipeline]: found under its [reduced-]
   key, else reduced from [graph] (forced only on a miss) and stored.
   The key takes the whole implementation term, hiding included, and the
   spec key: the dead pass eliminates events against the spec's
   normal-form alphabet, so the same implementation reduced against a
   different spec is a different artifact. *)
let cached_reduction ~(config : Check_config.t) ~model ~pipeline ~norm
    ~spec_cache_key defs impl graph =
  let stored =
    match config.cache, spec_cache_key with
    | Some cache, Some spec ->
      Some
        ( cache,
          Cache.reduced_key ~model ~pipeline ~spec
            ~impl:(Cache.impl_key ~max_states:config.max_states defs impl) )
    | _ -> None
  in
  match Option.bind stored (fun (cache, key) -> Cache.find cache key) with
  | Some (Cache.Reduced (reduced, pass_stats)) -> Ok (reduced, pass_stats)
  | Some _ | None ->
    (match Lazy.force graph with
     | Lts.Partial progress -> Error progress
     | Lts.Complete g ->
       let reduced, pass_stats =
         Reduce.apply ~obs:config.obs ~model ~norm pipeline g
       in
       Option.iter
         (fun (cache, key) ->
           Cache.add cache key (Cache.Reduced (reduced, pass_stats)))
         stored;
       Ok (reduced, pass_stats))

(* Counterexample canonicalisation: the reduced graph proves a violation
   exists, but its trace and state term reflect the reduced shape. The
   unreduced graph is the raw engine's graph up to state numbering — same
   terms, rows in the same order — so a search over it reports the
   counterexample of [--reductions none] byte for byte. If that graph is
   out of reach, or its search reaches no verdict within the budgets,
   the reduced counterexample stands. Other results report the passes. *)
let canonical result ~pass_stats ~unreduced =
  let reductions =
    List.map
      (fun s -> s.Reduce.pass, s.Reduce.states_before, s.Reduce.states_after)
      pass_stats
  in
  match result with
  | Fails _ -> (
    match unreduced () with
    | Some (Fails _ as raw) -> raw
    | Some (Holds _ | Inconclusive _) | None -> result)
  | Holds stats -> Holds { stats with reductions }
  | Inconclusive (stats, hint) -> Inconclusive ({ stats with reductions }, hint)

let product_check ~(config : Check_config.t) ~refusal_mode ?resume_from defs
    ~spec ~impl =
  let budget = budget ?resume_from config in
  (* One transition function serves both sides of the check. It is
     created on first use: a re-check whose artifacts are all cached
     steps nothing. *)
  let stepper = lazy (Semantics.make_cached ~obs:config.obs ~budget defs) in
  let step p = Lazy.force stepper p in
  verdict @@ with_spec ~config ~budget ~step defs spec
  @@ fun norm spec_cache_key ->
    let search ?resume_from ?pipeline source =
      search ~config ~refusal:refusal_mode ~budget ?resume_from ?pipeline
        ~norm source
    in
    (* The unreduced engine: implementation states generated on the fly.
       Used when no pass applies and when the staged compile runs out of
       states, which it can do gracefully (and still find an early
       counterexample without the full graph). *)
    let raw_search () =
      search ?resume_from (Search.proc_source ~step (const_fold defs impl))
    in
    match model_of_refusal refusal_mode with
    | None -> raw_search ()
    | Some model ->
      (match
         resumed_pipeline ?resume_from (Reduce.effective ~model config.reductions)
       with
       | [] -> raw_search ()
       | pipeline ->
         (* The unreduced staged graph, forced by a reduced-graph miss,
            and otherwise only by a [Fails] that needs it. A checkpoint
            recorded against this pipeline implies the staged compile
            completed. *)
         let compiled =
           lazy
             (staged_graph ~config
                ~budget:(compile_budget ?resume_from budget)
                defs impl)
         in
         (match
            cached_reduction ~config ~model ~pipeline ~norm ~spec_cache_key
              defs impl compiled
          with
          (* Only a compile too big for its state budget falls back: the
             raw engine may still find a counterexample without the whole
             graph. A deadline, an interrupt or the watermark stops the
             check, as in [fd_check], so a retry re-runs it reduced. *)
          | Error { Lts.reason = Budget.States; _ } -> raw_search ()
          | Error progress -> stopped progress
          | Ok (reduced, pass_stats) ->
            let result =
              search ?resume_from ~pipeline:(Reduce.fingerprint pipeline)
                (Search.lts_source ~check_divergence:false reduced)
            in
            canonical result ~pass_stats ~unreduced:(fun () ->
                match Lazy.force compiled with
                | Lts.Partial _ -> None
                | Lts.Complete g ->
                  Some
                    (search
                       (Search.lts_source ~check_divergence:false
                          (Reduce.with_root_call defs impl g))))))

(* Failures-divergences refinement: the implementation is compiled to its
   explicit graph (divergence detection needs its tau-SCCs), then the
   product is explored. *)
let fd_check ~(config : Check_config.t) ?resume_from defs ~spec ~impl =
  let budget = budget ?resume_from config in
  let step = Semantics.make_cached ~obs:config.obs ~budget defs in
  verdict @@ with_spec ~config ~budget ~step defs spec
  @@ fun norm spec_cache_key ->
    let search ?resume_from ?pipeline lts =
      search ~config ~refusal:`Acceptances ~budget ?resume_from ?pipeline
        ~norm (Search.lts_source ~check_divergence:true lts)
    in
    match
      raw_graph ~config ~budget:(compile_budget ?resume_from budget) defs impl
    with
    | Lts.Partial progress -> stopped progress
    | Lts.Complete g ->
      let impl_lts = Lts.renumber g in
      (match
         resumed_pipeline ?resume_from
           (Reduce.effective ~model:`Fd config.reductions)
       with
       | [] -> search ?resume_from ~pipeline:"none" impl_lts
       | pipeline ->
         (* The model tag keeps FD reductions of the renumbered graph
            apart from the traces and failures reductions. *)
         (match
            cached_reduction ~config ~model:`Fd ~pipeline ~norm
              ~spec_cache_key defs impl
              (Lazy.from_val (Lts.Complete impl_lts))
          with
          | Error progress -> stopped progress
          | Ok (reduced, pass_stats) ->
            (* the search of the unreduced graph ignores the checkpoint
               of the reduced one *)
            canonical
              (search ?resume_from ~pipeline:(Reduce.fingerprint pipeline)
                 reduced)
              ~pass_stats
              ~unreduced:(fun () -> Some (search impl_lts))))

(* One dispatch for a fresh check and a resumed one. Resuming recompiles
   the implementation's graphs (FD, or a reduced pipeline) under no stop
   ([compile_budget]), then hands the checkpoint to the engine, which
   fast-forwards the replay (the specification's normal form grows along
   with it) and arms [config.deadline] (or the checkpoint's unconsumed
   budget) at the crossing point. *)
let refines ?resume_from ?(config = Check_config.default) ?(model = Traces)
    defs ~spec ~impl =
  match model with
  | Traces ->
    product_check ~config ~refusal_mode:`None ?resume_from defs ~spec ~impl
  | Failures ->
    product_check ~config ~refusal_mode:`Acceptances ?resume_from defs ~spec
      ~impl
  | Failures_divergences -> fd_check ~config ?resume_from defs ~spec ~impl

let check ?config ?model defs ~spec ~impl =
  refines ?config ?model defs ~spec ~impl

let traces_refines ?config defs ~spec ~impl =
  check ?config ~model:Traces defs ~spec ~impl

let failures_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures defs ~spec ~impl

let fd_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures_divergences defs ~spec ~impl

let resume ?config ?model ~checkpoint defs ~spec ~impl =
  refines ~resume_from:checkpoint ?config ?model defs ~spec ~impl

let resume_deterministic ?(config = Check_config.default) ~checkpoint defs
    proc =
  product_check ~config ~refusal_mode:`Full ~resume_from:checkpoint defs
    ~spec:proc ~impl:proc

let explicit_graph ?(config = Check_config.default) defs proc =
  match raw_graph ~config ~budget:(budget config) defs proc with
  | Lts.Complete g -> Lts.Complete (Lts.renumber g)
  | Lts.Partial _ as r -> r

(* Deadlock/divergence freedom: compile the graph, find the offending
   states, and BFS a shortest path to one, in row order. Neither depends
   on the numbering, so the graph is not renumbered, which would rebuild
   every row. The offender set is looked up through a bitset. *)
let bad_state_check ~violation ~find ~(config : Check_config.t) defs proc =
  let t0 = Obs.now () in
  match raw_graph ~config ~budget:(budget config) defs proc with
  | Lts.Partial progress -> stopped progress
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
  product_check ~config ~refusal_mode:`Full defs ~spec:proc ~impl:proc

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

(* What stopped the search: a budget that ran out, or a stop that is not
   a budget (an interrupt, the heap watermark). *)
let pp_stopped ppf = function
  | Deadline -> Format.pp_print_string ppf "deadline exhausted"
  | States -> Format.pp_print_string ppf "state budget exhausted"
  | Pairs -> Format.pp_print_string ppf "pair budget exhausted"
  | Interrupt -> Format.pp_print_string ppf "interrupted"
  | Memory -> Format.pp_print_string ppf "memory watermark crossed"

let pp_resume_hint ppf hint =
  (* the deepest trace can be thousands of events long on a budget-limited
     run — show its depth and only the last few steps *)
  let depth = List.length hint.deepest in
  let max_shown = 12 in
  if depth <= max_shown then
    Format.fprintf ppf "%a; frontier = %d, deepest trace = %a" pp_stopped
      hint.exhausted hint.frontier pp_labels hint.deepest
  else
    let tail =
      List.filteri (fun i _ -> i >= depth - max_shown) hint.deepest
    in
    Format.fprintf ppf
      "%a; frontier = %d, deepest trace (depth %d) ends <..., %a" pp_stopped
      hint.exhausted hint.frontier depth
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
