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
  exhausted : Budget.kind;  (* why the original run stopped *)
  pipeline : string;
      (* fingerprint of the reduction pipeline the search ran under
         ("none" for the raw engine): pair ids and the visit-order digest
         only replay under the same pipeline, so resuming under a
         different one must fail loudly instead of replaying garbage *)
}

type resume_hint = {
  frontier : int;
  deepest : Event.label list;
  exhausted : Budget.kind;
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
      "exhausted", Str (Budget.kind_to_string cp.exhausted);
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
                        Budget.kind_of_string
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

type progress = {
  explored : int;
  pairs : int;
  impl_states : int;
  frontier : int;
  elapsed_s : float;
  rate : float;
  budget_frac : float;
}

(* Progress cadence: progress callbacks and live gauge updates fire once
   per this many explored pairs. *)
let progress_poll_mask = 255

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

let proc_source ~step term0 =
  let index = Id_tbl.create 64 in
  let terms = ref (Array.make 64 term0) in
  let count = ref 0 in
  let intern_term term =
    match Id_tbl.find_opt index term with
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
      Id_tbl.replace index term i;
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

module Int_tbl = Hashtbl.Make (Int)

let product ~refusal ~max_pairs ~budget ?(obs = Obs.silent) ?progress
    ?resume_from ?(pipeline = "none") ~norm source =
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
     per-id state and parent edge live in growable arrays. They start
     small and double: most checks a daemon re-runs visit a handful of
     pairs, and a large initial block is allocated and cleared on every
     one of them. *)
  let pair_ids = Pair_tbl.create 8 in
  let pair_impl = ref (Array.make 8 0) in
  let pair_node = ref (Array.make 8 0) in
  let parents = ref (Array.make 8 None) in
  let pair_count = ref 0 in
  let queue = Queue.create () in
  let peak_frontier = ref 0 in
  (* Rolling digest over every interned pair, in interning order — a
     portable fingerprint of search progress. *)
  let digest = ref 0 in
  (* Spec nodes by order of first appearance in this search. A shared
     normal form numbers its nodes in materialisation order, which
     depends on every check that used it; the digest, the [spec_nodes]
     stat and the spec's share of the state budget read this search's
     own numbering, so they come out the same cold or warm. *)
  let spec_order = Int_tbl.create 16 in
  let max_spec_nodes = Normalise.max_states norm in
  let intern_pair parent ((impl_i, node) as pair) =
    if not (Pair_tbl.mem pair_ids pair) then begin
      let spec_i =
        match Int_tbl.find_opt spec_order node with
        | Some k -> k
        | None ->
          let k = Int_tbl.length spec_order in
          if k >= max_spec_nodes then raise (Budget.Exhausted States);
          k
      in
      if !pair_count >= max_pairs then raise (Budget.Exhausted Pairs);
      Int_tbl.replace spec_order node spec_i;
      let id = !pair_count in
      incr pair_count;
      digest := digest_mix (digest_mix !digest impl_i) spec_i;
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
     the engine replays the deterministic prefix with the budget's
     deadline unarmed and progress suppressed, and arms it only once the
     recorded position is crossed and validated: the check's own
     deadline, else the checkpoint's unconsumed one. *)
  let ff = ref resume_from in
  let pending_deadline cp =
    match Budget.seconds budget with
    | Some _ as seconds -> seconds
    | None -> cp.deadline_left
  in
  let deadline_left_now () =
    match !ff with
    | Some cp -> pending_deadline cp
    | None -> Budget.left budget
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
     remaining wall budget, for the search and the normal form alike.
     Checked at the head of every commit, where the state equals a commit
     boundary. *)
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
      Budget.arm budget (pending_deadline cp)
    | _ -> ()
  in
  (* Progress callbacks and gauge refreshes share the poll cadence; with a
     silent handle and no callback the whole tick is one boolean test per
     dequeue. Both stay quiet while fast-forwarding a resumed prefix. *)
  let ticking = progress <> None || not (Obs.is_silent obs) in
  let tick () =
    if
      ticking && !ff = None && !explored > 0
      && !explored land progress_poll_mask = 0
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
      ~spec_nodes:(Int_tbl.length spec_order) ~pairs:!pair_count ()
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
        | `Full -> [ Normalise.labels norm node ]
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
      | None ->
        (* The spec node each successor moves to, [None] where the
           specification forbids the label. Every permitted successor
           state is interned first, in row order, then the pairs up to
           the first violation; the target of a forbidden label is never
           interned. *)
        let afters =
          List.map
            (fun (l, _) ->
              match l with
              | Event.Tau -> Some node
              | Event.Tick | Event.Vis _ -> Normalise.after norm node l)
            ts
        in
        let steps =
          List.map2
            (fun (l, target) after ->
              l, Option.map (fun node' -> source.intern target, node') after)
            ts afters
        in
        List.find_map
          (fun (l, pair) ->
            match pair with
            | Some pair ->
              intern_pair (Some (l, pair_id)) pair;
              None
            | None -> fails [ l ] (Trace_violation l))
          steps)
  in
  let rec search () =
    (* an empty queue is a completed search: the verdict stands even if
       the deadline expired while reaching it *)
    if Queue.is_empty queue then Holds (current_stats ())
    else begin
      cross_if_resuming ();
      tick ();
      if Budget.poll_due !explored then Budget.poll budget;
      match visit (Queue.take queue) with
      | Some result -> result
      | None ->
        note_boundary ();
        search ()
    end
  in
  (* Unwinding on an exhausted budget: the verdict carries the counters,
     the frontier and a checkpoint at the last commit boundary. A stop
     inside a pair's visit (between its dequeue and its commit) leaves
     that pair unexplored, and so does the pair a [Pairs] exhaustion
     failed to intern: both count as frontier. A [States] exhaustion
     reports the queue alone. *)
  let inconclusive kind =
    let pending =
      match (kind : Budget.kind) with
      | States -> 0
      | Pairs -> 1
      | Deadline | Interrupt | Memory -> !explored - !b_explored
    in
    let frontier = Queue.length queue + pending in
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
  in
  try
    intern_pair None (source.initial, Normalise.initial norm);
    note_boundary ();
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
  with Budget.Exhausted kind -> inconclusive kind
