type violation =
  | Trace_violation of Event.label
  | Refusal_violation of {
      offered : Event.label list;
      acceptances : Event.label list list;
    }
  | Deadlock
  | Divergence

type counterexample = {
  trace : Event.label list;
  violation : violation;
  impl_state : Proc.t;
}

type stats = {
  impl_states : int;
  spec_nodes : int;
  pairs : int;
  wall_s : float;
  states_per_sec : float;
  peak_frontier : int;
  reductions : (string * int * int) list;
}

type budget_kind =
  | Deadline
  | States
  | Pairs
  | Interrupt
  | Memory

let budget_kind_to_string = function
  | Deadline -> "deadline"
  | States -> "states"
  | Pairs -> "pairs"
  | Interrupt -> "interrupt"
  | Memory -> "memory"

let budget_kind_of_string = function
  | "deadline" -> Some Deadline
  | "states" -> Some States
  | "pairs" -> Some Pairs
  | "interrupt" -> Some Interrupt
  | "memory" -> Some Memory
  | _ -> None

(* A checkpoint is a commit-boundary snapshot of the deterministic search:
   because pairs are interned (and committed) in a fixed order, "the state
   after [explored] commits" fully determines the remaining search. The
   [visited_digest] is a rolling hash over every interned (impl state,
   spec node) pair, masked to 52 bits so it survives a float-backed JSON
   round trip exactly; it is validated when a resumed run crosses the
   recorded position, so resuming against the wrong script,
   configuration, or engine version fails loudly instead of silently
   diverging. *)
type checkpoint = {
  explored : int;  (* commits completed at the boundary *)
  pairs : int;  (* product pairs interned at the boundary *)
  impl_states : int;
  visited_digest : int;
  deadline_left : float option;  (* unconsumed wall budget, seconds *)
  exhausted : budget_kind;  (* why the original run stopped *)
  pipeline : string;
      (* fingerprint of the reduction pipeline the search ran under
         ("none" for the raw engine): pair ids and the visit-order digest
         only replay under the same pipeline, so resuming under a
         different one must fail loudly instead of replaying garbage *)
}

type resume_hint = {
  frontier : int;
  deepest : Event.label list;
  exhausted : budget_kind;
  checkpoint : checkpoint option;
}

exception Resume_mismatch of string

(* 52-bit rolling hash: deterministic, cheap (two multiply-adds per
   interned pair), and exactly representable as a JSON number. *)
let digest_mask = 0xF_FFFF_FFFF_FFFF

let digest_mix h k = (((h * 0x1003F) lxor k) * 0x2545F49) land digest_mask

let checkpoint_schema = "cspm-search-checkpoint/1"

let json_of_checkpoint cp =
  let open Obs.Json in
  Obj
    [
      "schema", Str checkpoint_schema;
      "explored", Num (float_of_int cp.explored);
      "pairs", Num (float_of_int cp.pairs);
      "impl_states", Num (float_of_int cp.impl_states);
      "visited_digest", Num (float_of_int cp.visited_digest);
      ( "deadline_left",
        match cp.deadline_left with Some s -> Num s | None -> Null );
      "exhausted", Str (budget_kind_to_string cp.exhausted);
      "reductions", Str cp.pipeline;
    ]

let checkpoint_of_json json =
  let open Obs.Json in
  let int_field name =
    match Option.bind (member name json) to_int with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (Printf.sprintf "checkpoint: negative %S" name)
    | None -> Error (Printf.sprintf "checkpoint: missing integer %S" name)
  in
  match Option.bind (member "schema" json) to_str with
  | Some s when String.equal s checkpoint_schema ->
    Result.bind (int_field "explored") (fun explored ->
        Result.bind (int_field "pairs") (fun pairs ->
            Result.bind (int_field "impl_states") (fun impl_states ->
                Result.bind (int_field "visited_digest") (fun visited_digest ->
                    let deadline_left =
                      Option.bind (member "deadline_left" json) to_float
                    in
                    match
                      Option.bind
                        (Option.bind (member "exhausted" json) to_str)
                        budget_kind_of_string
                    with
                    | Some exhausted ->
                      (* absent in pre-reduction checkpoints, which were
                         always recorded by the raw engine *)
                      let pipeline =
                        Option.value
                          (Option.bind (member "reductions" json) to_str)
                          ~default:"none"
                      in
                      Ok
                        {
                          explored;
                          pairs;
                          impl_states;
                          visited_digest;
                          deadline_left;
                          exhausted;
                          pipeline;
                        }
                    | None -> Error "checkpoint: bad \"exhausted\" kind"))))
  | Some s -> Error (Printf.sprintf "checkpoint: unknown schema %S" s)
  | None -> Error "checkpoint: missing schema tag"

type result =
  | Holds of stats
  | Fails of counterexample
  | Inconclusive of stats * resume_hint

type refusal = [ `None | `Acceptances | `Full ]

(* ['s] is an implementation successor before it is admitted to the dense
   state space: a term for on-the-fly sources, already a state id for
   precompiled graphs. *)
type 's source = {
  initial : int;
  step : int -> (Event.label * 's) list;
  intern : 's -> int;
  term_of : int -> Proc.t;
  state_count : unit -> int;
  divergent : (int -> bool) option;
}

type interner = [ `Id | `Structural ]

(* Ample-set partial-order reduction hooks, supplied by [Reduce.por_hooks]
   for precompiled implementation graphs. [por_groups i] partitions the
   transitions of state [i] into groups that belong to independent
   interleaved components ([] when the state has no such structure);
   [por_spec_free l] holds when the specification is insensitive to [l]
   (it self-loops on [l] at every normal-form node). The engine commits
   only one qualifying group instead of the full successor set when the
   ample conditions hold — see [commit]. *)
type por = {
  por_groups : int -> (Event.label * int) list list;
  por_spec_free : Event.label -> bool;
}

type progress = {
  explored : int;
  pairs : int;
  impl_states : int;
  frontier : int;
  elapsed_s : float;
  rate : float;
  budget_frac : float;
}

(* Deadline polling cadence: a clock read is a syscall, so the dequeue
   loop consults the clock only once per this many explored pairs instead
   of on every pair. Progress callbacks and live gauge updates ride the
   same cadence. *)
let deadline_poll_mask = 255

(* Internal: unwound to an [Inconclusive] verdict at the end of [product],
   where the current counters and frontier are in scope. *)
exception Out_of_budget of budget_kind

let visible_trace labels =
  List.filter
    (fun l -> match l with Event.Vis _ | Event.Tick -> true | Event.Tau -> false)
    labels

let per_sec states wall = if wall > 0. then float_of_int states /. wall else 0.

let make_stats ?(wall_s = 0.) ?(peak_frontier = 0) ?(reductions = [])
    ~impl_states ~spec_nodes ~pairs () =
  {
    impl_states;
    spec_nodes;
    pairs;
    wall_s;
    states_per_sec = per_sec (max impl_states pairs) wall_s;
    peak_frontier;
    reductions;
  }

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

module Id_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

module Structural_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.structural_equal
  let hash = Proc.structural_hash
end)

(* One polymorphic face over the two intern-table functors, so the
   interning scheme is selectable at runtime (the structural scheme is the
   oracle the hash-consed one is tested against). *)
let proc_interner = function
  | `Id ->
    let tbl = Id_tbl.create 1024 in
    (Id_tbl.find_opt tbl : Proc.t -> int option), Id_tbl.replace tbl
  | `Structural ->
    let tbl = Structural_tbl.create 1024 in
    (Structural_tbl.find_opt tbl, Structural_tbl.replace tbl)

let proc_source ?(interner = `Id) ~step term0 =
  let find_opt, replace = proc_interner interner in
  let terms = ref (Array.make 1024 term0) in
  let count = ref 0 in
  let intern_term term =
    match find_opt term with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      if i >= Array.length !terms then begin
        let bigger = Array.make (2 * i) term0 in
        Array.blit !terms 0 bigger 0 i;
        terms := bigger
      end;
      !terms.(i) <- term;
      replace term i;
      i
  in
  let initial = intern_term term0 in
  {
    initial;
    step = (fun i -> step !terms.(i));
    intern = intern_term;
    term_of = (fun i -> !terms.(i));
    state_count = (fun () -> !count);
    divergent = None;
  }

let lts_source ?(check_divergence = true) lts =
  let divergent =
    if check_divergence then begin
      let bits = Array.make (max 1 (Lts.num_states lts)) false in
      List.iter (fun i -> bits.(i) <- true) (Lts.divergences lts);
      Some (fun i -> bits.(i))
    end
    else None
  in
  {
    initial = lts.Lts.initial;
    step = Lts.transitions_of lts;
    intern = Fun.id;
    term_of = Lts.state_term lts;
    state_count = (fun () -> Lts.num_states lts);
    divergent;
  }

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash = Hashtbl.hash
end)

(* Heap watermark for the memory guard, in MiB. [Gc.quick_stat] reads
   counters without walking the heap, so polling it on the dequeue cadence
   costs about as much as the deadline's clock read. *)
let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.)

let product ~refusal ~max_pairs ?stop_at ?(obs = Obs.silent) ?progress
    ?cancel ?memory_limit_mb ?resume_from ?resume_deadline ?por
    ?(pipeline = "none") ~norm source =
  (* A checkpoint records the pipeline it was taken under; its pair ids
     and visit-order digest are meaningless under any other pipeline. *)
  (match resume_from with
   | Some cp when not (String.equal cp.pipeline pipeline) ->
     raise
       (Resume_mismatch
          (Printf.sprintf
             "checkpoint was recorded with reductions %S but this run \
              would search with %S — resume with the interrupted run's \
              --reductions setting"
             cp.pipeline pipeline))
   | _ -> ());
  let t0 = Obs.now () in
  (* Metric handles are registered once, here; on a silent handle every
     update below is a single branch and allocates nothing. *)
  let c_explored = Obs.counter obs "search.pairs_explored" in
  let c_interned = Obs.counter obs "search.pairs_interned" in
  let g_frontier = Obs.gauge obs "search.frontier" in
  let g_budget = Obs.gauge obs "search.budget_frac" in
  let g_impl_states = Obs.gauge obs "search.impl_states" in
  (* Product pairs (impl state, normal-form node), interned to dense ids;
     per-id state and parent edge live in growable arrays. *)
  let pair_ids = Pair_tbl.create 4096 in
  let pair_impl = ref (Array.make 4096 0) in
  let pair_node = ref (Array.make 4096 0) in
  let parents = ref (Array.make 4096 None) in
  let pair_count = ref 0 in
  let queue = Queue.create () in
  let peak_frontier = ref 0 in
  (* Rolling digest over every interned pair, in interning order — a
     portable fingerprint of search progress. *)
  let digest = ref 0 in
  let intern_pair parent ((impl_i, node) as pair) =
    if not (Pair_tbl.mem pair_ids pair) then begin
      if !pair_count >= max_pairs then raise (Out_of_budget Pairs);
      let id = !pair_count in
      incr pair_count;
      digest := digest_mix (digest_mix !digest impl_i) node;
      if id >= Array.length !parents then begin
        let grow dummy a =
          let bigger = Array.make (2 * id) dummy in
          Array.blit !a 0 bigger 0 id;
          a := bigger
        in
        grow 0 pair_impl;
        grow 0 pair_node;
        grow None parents
      end;
      Pair_tbl.replace pair_ids pair id;
      !pair_impl.(id) <- impl_i;
      !pair_node.(id) <- node;
      !parents.(id) <- parent;
      Queue.add id queue;
      Obs.incr c_interned;
      let frontier = Queue.length queue in
      if frontier > !peak_frontier then peak_frontier := frontier
    end
  in
  (* O(depth): walk the parent chain once, consing. *)
  let trace_to id =
    let rec go acc id =
      match !parents.(id) with
      | None -> acc
      | Some (l, p) -> go (l :: acc) p
    in
    go [] id
  in
  let counterexample pair_id extra violation impl_i =
    {
      trace = visible_trace (trace_to pair_id @ extra);
      violation;
      impl_state = source.term_of impl_i;
    }
  in
  (* Pairs are dequeued in BFS order, so the most recently dequeued pair
     lies on a deepest explored path — the natural resume hint. *)
  let explored = ref 0 in
  let last_dequeued = ref 0 in
  (* Fast-forward state: while [ff] holds the checkpoint being resumed,
     the engine replays the deterministic prefix with the deadline unarmed
     and progress suppressed; [pending_budget] is armed as an absolute
     deadline only once the recorded position is crossed and validated.
     Fresh runs arm [stop_at] immediately and never fast-forward. *)
  let ff = ref resume_from in
  let stop_at_r =
    ref (match resume_from with Some _ -> None | None -> stop_at)
  in
  let pending_budget =
    ref
      (match resume_from with
       | Some cp ->
         (match resume_deadline with
          | Some _ -> resume_deadline
          | None -> cp.deadline_left)
       | None -> None)
  in
  let deadline_left_now () =
    match !stop_at_r with
    | Some limit -> Some (Float.max 0. (limit -. Obs.now ()))
    | None -> !pending_budget
  in
  (* Commit-boundary snapshot: updated after every fully committed pair,
     so a checkpoint taken mid-commit (a pair budget trips while interning
     successors) still describes a state the replay passes through. *)
  let b_explored = ref 0 and b_pairs = ref 0 and b_digest = ref 0 in
  let note_boundary () =
    b_explored := !explored;
    b_pairs := !pair_count;
    b_digest := !digest
  in
  (* Crossing the recorded position of a resumed run: validate that the
     replay reproduced the interrupted search exactly, then arm the
     remaining wall budget. Checked at the head of every commit, where the
     state equals a commit boundary. *)
  let cross_if_resuming () =
    match !ff with
    | Some cp when !explored >= cp.explored ->
      if
        !explored <> cp.explored
        || !pair_count <> cp.pairs
        || !digest <> cp.visited_digest
      then
        raise
          (Resume_mismatch
             (Printf.sprintf
                "checkpoint mismatch at commit %d: recorded %d pairs \
                 (digest %#x), replay has %d pairs (digest %#x) — the \
                 script, assertion, or budgets differ from the \
                 interrupted run"
                cp.explored cp.pairs cp.visited_digest !pair_count !digest));
      ff := None;
      (match !pending_budget with
       | Some budget -> stop_at_r := Some (Obs.now () +. budget)
       | None -> ());
      pending_budget := None
    | _ -> ()
  in
  (* All degradation triggers ride one cadence: every 256 commits the
     engine polls the cancellation token, the heap watermark, and the
     wall clock (each a function call, a counter read, and a syscall
     respectively — nothing per-pair). *)
  let check_budgets () =
    if !explored > 0 && !explored land deadline_poll_mask = 0 then begin
      (match cancel with
       | Some cancelled when cancelled () -> raise (Out_of_budget Interrupt)
       | _ -> ());
      (match memory_limit_mb with
       | Some mb when heap_mb () > float_of_int mb ->
         raise (Out_of_budget Memory)
       | _ -> ());
      match !stop_at_r with
      | Some limit when Obs.now () > limit -> raise (Out_of_budget Deadline)
      | _ -> ()
    end
  in
  (* Progress callbacks and gauge refreshes share the poll cadence; with a
     silent handle and no callback the whole tick is one boolean test per
     dequeue. Both stay quiet while fast-forwarding a resumed prefix. *)
  let ticking = progress <> None || not (Obs.is_silent obs) in
  let tick () =
    if
      ticking && !ff = None && !explored > 0
      && !explored land deadline_poll_mask = 0
    then begin
      let frontier = Queue.length queue in
      let budget_frac = float_of_int !pair_count /. float_of_int max_pairs in
      Obs.set g_frontier (float_of_int frontier);
      Obs.set g_budget budget_frac;
      Obs.set g_impl_states (float_of_int (source.state_count ()));
      match progress with
      | None -> ()
      | Some cb ->
        let elapsed_s = Obs.now () -. t0 in
        cb
          {
            explored = !explored;
            pairs = !pair_count;
            impl_states = source.state_count ();
            frontier;
            elapsed_s;
            rate =
              (if elapsed_s > 0. then float_of_int !explored /. elapsed_s
               else 0.);
            budget_frac;
          }
    end
  in
  let current_stats () =
    let wall_s = Obs.now () -. t0 in
    make_stats ~wall_s ~peak_frontier:!peak_frontier
      ~impl_states:(source.state_count ())
      ~spec_nodes:(Normalise.num_nodes norm) ~pairs:!pair_count ()
  in
  (* A stable state whose offers cover none of the node's acceptance sets
     is a refusal violation: [Some (offered, acceptances)]. *)
  let refused node ts =
    let stable =
      not
        (List.exists
           (fun (l, _) -> match l with Event.Tau -> true | _ -> false)
           ts)
    in
    if refusal <> `None && stable then begin
      let offered = List.sort_uniq Event.compare_label (List.map fst ts) in
      let accs =
        match refusal with
        | `Acceptances -> Normalise.acceptances norm node
        | `Full ->
          [ List.sort_uniq Event.compare_label
              (List.map fst (Normalise.afters norm node)) ]
        | `None -> []
      in
      let covered =
        List.exists
          (fun acc -> List.for_all (fun l -> List.mem l offered) acc)
          accs
      in
      if covered then None else Some (offered, accs)
    end
    else None
  in
  (* Ample-set selection. The proviso consults pair ids (FIFO interning
     order = dequeue order), so the choice depends only on the commit
     order. A group G of state [s]'s transitions qualifies as ample when:
     - every edge of [s] is a plain step (no trace violation, no tick):
       otherwise the violation must be found / the spec must move;
     - the state's transitions split into >= 2 component groups that
       cover them all (so G is a proper subset);
     - every label of G is invisible to the specification (Tau, or
       self-looping at every normal-form node), hence firing G keeps the
       spec node and cannot mask or create a violation;
     - cycle proviso: some successor of G is not yet closed (not interned,
       or interned with a pair id greater than the committing pair's, i.e.
       still queued) — deferring the other groups along a cycle of
       already-closed states would postpone them forever. *)
  let c_ample = Obs.counter obs "search.por_ample_commits" in
  let ample pair_id node edges =
    let plain_step = function
      | (Event.Tau | Event.Vis _), _, Some _ -> true
      | Event.Tick, _, _ | _, _, None -> false
    in
    match por with
    | Some p
      when refusal = `None && source.divergent = None
           && List.for_all plain_step edges -> (
      match p.por_groups !pair_impl.(pair_id) with
      | [] | [ _ ] -> None
      | groups ->
        let total =
          List.fold_left (fun acc g -> acc + List.length g) 0 groups
        in
        if total <> List.length edges then None
        else
          let qualifies g =
            g <> []
            && List.for_all (fun (l, _) -> p.por_spec_free l) g
            && List.exists
                 (fun (_, j) ->
                   match Pair_tbl.find_opt pair_ids (j, node) with
                   | None -> true
                   | Some id -> id > pair_id)
                 g
          in
          List.find_opt qualifies groups)
    | _ -> None
  in
  (* Expand and commit one dequeued pair. [Some result] ends the search. *)
  let visit pair_id =
    last_dequeued := pair_id;
    incr explored;
    Obs.incr c_explored;
    let impl_i = !pair_impl.(pair_id) and node = !pair_node.(pair_id) in
    let fails extra violation =
      Some (Fails (counterexample pair_id extra violation impl_i))
    in
    match source.divergent with
    | Some _ when Normalise.divergent norm node ->
      None (* below a divergent specification node anything is allowed *)
    | Some impl_divergent when impl_divergent impl_i -> fails [] Divergence
    | _ -> (
      let ts = source.step impl_i in
      match refused node ts with
      | Some (offered, acceptances) ->
        fails [] (Refusal_violation { offered; acceptances })
      | None -> (
        (* each successor with the spec node it moves to; [None] when the
           specification forbids the label *)
        let edges =
          List.map
            (fun (l, target) ->
              match l with
              | Event.Tau -> l, target, Some node
              | Event.Tick | Event.Vis _ ->
                l, target, Normalise.after norm node l)
            ts
        in
        match ample pair_id node edges with
        | Some group ->
          (* Every label of an ample group leaves the spec node in place
             (Tau, or a label the spec self-loops on everywhere). POR
             groups name graph states, which need no interning. *)
          Obs.incr c_ample;
          List.iter
            (fun (l, j) -> intern_pair (Some (l, pair_id)) (j, node))
            group;
          None
        | None ->
          (* Intern every permitted successor state first, in row order,
             then the pairs up to the first violation. The target of a
             forbidden label is never interned. *)
          let steps =
            List.map
              (fun (l, target, after) ->
                match after with
                | Some node' -> l, Some (source.intern target, node')
                | None -> l, None)
              edges
          in
          List.find_map
            (fun (l, pair) ->
              match pair with
              | Some pair ->
                intern_pair (Some (l, pair_id)) pair;
                None
              | None -> fails [ l ] (Trace_violation l))
            steps))
  in
  intern_pair None (source.initial, Normalise.initial norm);
  note_boundary ();
  let rec search () =
    (* an empty queue is a completed search: the verdict stands even if
       the deadline expired while reaching it *)
    if Queue.is_empty queue then Holds (current_stats ())
    else begin
      cross_if_resuming ();
      tick ();
      check_budgets ();
      match visit (Queue.take queue) with
      | Some result -> result
      | None ->
        note_boundary ();
        search ()
    end
  in
  try
    let result = Obs.span obs "search.product" search in
    (* A terminal verdict while still fast-forwarding means the replay ran
       out of states before the recorded position — the checkpoint cannot
       belong to this search. Refuse rather than return the wrong model's
       verdict. *)
    (match !ff with
     | Some cp ->
       raise
         (Resume_mismatch
            (Printf.sprintf
               "search exhausted after %d commits without reaching the \
                recorded position (commit %d) — the checkpoint belongs to \
                a different script or assertion"
               !explored cp.explored))
     | None -> ());
    result
  with Out_of_budget kind ->
    (* A [Pairs] exhaustion is raised on the pair that failed to intern;
       it is discovered-but-unexplored work, so it counts as frontier. *)
    let frontier =
      Queue.length queue + (match kind with Pairs -> 1 | _ -> 0)
    in
    let cp : checkpoint =
      {
        explored = !b_explored;
        pairs = !b_pairs;
        impl_states = source.state_count ();
        visited_digest = !b_digest;
        deadline_left = deadline_left_now ();
        exhausted = kind;
        pipeline;
      }
    in
    Inconclusive
      ( current_stats (),
        {
          frontier;
          deepest = visible_trace (trace_to !last_dequeued);
          exhausted = kind;
          checkpoint = (if !b_pairs >= 1 then Some cp else None);
        } )
