(* Staged state-space reduction. Two stages, both optional and selected
   by [Check_config.reductions]:

   1. [compile_staged]: decompose the term's parallel structure into a
      tree of lazy combinator nodes (FDR's supercompilation idea). Leaves
      step their small subterms through the operational semantics;
      composition nodes work on integer component-state pairs with
      memoized transition rows and event-indexed synchronisation lookup,
      classifying each child edge once per child state.
      Only the root's reachable graph is materialized — an interleaving of
      hundreds of two-state intruder cells costs its reachable product,
      never 2^cells, because intermediate nodes are only ever driven by
      root reachability.

   2. [apply]: composable Lts.t -> Lts.t passes (dead-event hiding, tau
      compression, strong-bisimulation quotienting), each obs-instrumented.

   Soundness notes are kept with each pass; the passes are gated per
   model by [effective]. The staged graph is the raw engine's graph up to
   numbering, and [Refine] re-derives reduced counterexamples on it, so
   every user-visible verdict and trace is identical to the unreduced
   engine's. *)

type pass = Dead_events | Tau_compress | Bisim
type pipeline = pass list

(* Also the application order: hiding dead events first manufactures taus
   for tau compression, and bisim merges whatever is left. *)
let canonical_order = [ Dead_events; Tau_compress; Bisim ]
let default_pipeline = canonical_order

let pass_name = function
  | Dead_events -> "dead"
  | Tau_compress -> "tau"
  | Bisim -> "bisim"

(* Dead-event hiding changes stability: traces only. *)
let effective ~model pipeline =
  List.filter
    (fun p -> List.memq p pipeline && (p <> Dead_events || model = `Traces))
    canonical_order

let pipeline_to_string = function
  | [] -> "none"
  | ps ->
    String.concat ","
      (List.map pass_name (List.filter (fun p -> List.memq p ps) canonical_order))

let fingerprint = pipeline_to_string

let pipeline_of_string s =
  let s = String.trim s in
  if String.equal s "none" || String.equal s "" then Ok []
  else if String.equal s "default" then Ok default_pipeline
  else
    let rec go acc = function
      | [] -> Ok (List.filter (fun p -> List.memq p acc) canonical_order)
      | part :: rest -> (
        match String.trim part with
        | "dead" -> go (Dead_events :: acc) rest
        | "tau" -> go (Tau_compress :: acc) rest
        | "bisim" -> go (Bisim :: acc) rest
        | other ->
          Error
            (Printf.sprintf
               "unknown reduction %S (expected a comma-separated subset of \
                dead, tau, bisim — or none / default)"
               other))
    in
    go [] (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* Small shared machinery                                              *)
(* ------------------------------------------------------------------ *)

module Proc_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

module Label_tbl = Event.Label_tbl

(* Growable array: the state tables of combinator nodes. *)
module Dyn = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) t.dummy in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.data.(i)
  let set t i x = t.data.(i) <- x
end

(* Sort a row by (label, target) and deduplicate — the label order
   [Lts.t] consumers rely on (taus first). The graph passes keep their
   output rows in this shape; [compile_staged] sorts the root graph's
   rows by target term instead, as [Semantics.transitions] does. Inside
   the combinator tree rows stay raw: they are deterministic and
   duplicate-free by construction. *)
let sort_edges edges =
  List.sort_uniq
    (fun (l1, (j1 : int)) (l2, j2) ->
      let c = Event.compare_label l1 l2 in
      if c <> 0 then c else Int.compare j1 j2)
    edges

(* ------------------------------------------------------------------ *)
(* Staged compilation: lazy combinator tree                            *)
(* ------------------------------------------------------------------ *)

type env = {
  step : Proc.t -> (Event.label * Proc.t) list;
  defs : Defs.t;
  fenv : Expr.fenv;
  tys : Ty.lookup;
  max_states : int;  (* total states across every tree node *)
  mutable interned : int;
  stop : Budget.t;
}

(* Charged once per interned component state; the check's budget is
   polled on its cadence. *)
let charge env =
  env.interned <- env.interned + 1;
  if env.interned > env.max_states then raise (Budget.Exhausted States);
  if Budget.poll_due env.interned then Budget.poll env.stop

(* A combinator node: a lazily explored integer state space. [c_step] is
   memoized per state; [c_term] rebuilds the process term a state denotes
   (for the materialized graph and counterexamples);
   [c_reserve] sets aside a fresh id in the node's id space that the node
   itself never reaches, for a named call's own state ([call_comp]);
   [c_body] is the state the initial one steps as — itself, unless the
   initial state is such a call state.

   Each transition carries the structural hash of its event (0 for tau
   and tick), computed once when the edge first appears at a leaf and
   propagated through every composition level. Synchronization joins are
   hash joins, and without the annotation they would re-walk the deep
   payload of the same physically-shared event once per composed state
   that exposes it — the dominant cost on intruder-style models whose
   events carry structured packets. *)
type comp = {
  c_initial : int;
  c_body : int;
  c_step : int -> (Event.label * int * int) list;
  c_term : int -> Proc.t;
  c_reserve : unit -> int;
}

(* Reserved ids are negative, counting down from -2 (-1 is a component
   of the Omega pair), so reserving one grows no state table: the node
   never steps or names them itself — [call_comp] answers for them. *)
let reserver env =
  let next = ref (-1) in
  fun () ->
    charge env;
    decr next;
    !next

let label_hash = function
  | Event.Vis e -> Event.hash e
  | Event.Tau | Event.Tick -> 0

(* A leaf steps its subterm through the operational semantics, interning
   the (small) terms it reaches. Laziness is what keeps decomposition
   sound for components whose standalone state space dwarfs their
   synchronized-reachable one: nothing drives a leaf beyond the states the
   whole system visits. *)
let leaf_comp env term0 =
  let ids = Proc_tbl.create 64 in
  let terms = Dyn.create term0 in
  let memo : (Event.label * int * int) list option Dyn.t = Dyn.create None in
  let intern t =
    match Proc_tbl.find_opt ids t with
    | Some i -> i
    | None ->
      charge env;
      let i = terms.Dyn.len in
      Dyn.push terms t;
      Dyn.push memo None;
      Proc_tbl.add ids t i;
      i
  in
  let c_initial = intern term0 in
  let c_step i =
    match Dyn.get memo i with
    | Some ts -> ts
    | None ->
      (* [env.step] already returns sorted, deduplicated rows; this map
         preserves that order, so no re-sort is needed. *)
      let ts =
        List.map
          (fun (l, t) -> l, label_hash l, intern t)
          (env.step (Dyn.get terms i))
      in
      Dyn.set memo i (Some ts);
      ts
  in
  {
    c_initial;
    c_body = c_initial;
    c_step;
    c_term = (fun i -> Dyn.get terms i);
    c_reserve = reserver env;
  }

(* Typed hash tables for the two hot keys of parallel composition. The
   polymorphic versions funnel every probe through [caml_compare] /
   [caml_hash] on deep values — on packet-carrying events that C-level
   structural walk dominates the whole staged compile. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = (a2 : int) && b1 = (b2 : int)
  let hash (a, b) = (a * 65599) + b
end)

(* The role of a child edge in a parallel composition, one byte per edge:
   a free move (tau, or a visible event outside the interface that this
   side may perform), a synchronising move, a visible event this side may
   not perform at all (an alphabetised parallel's), or a tick. *)
let dropped = '\000'
let free = '\001'
let synced = '\002'
let ticks = '\003'

(* A child state's row as a composition sees it, decided the first time a
   pair names the state: each edge's role, in row order. The left side
   keeps its synchronising edges, the join's probes, and their count; the
   right side its synchronising edges bucketed by the annotated event
   hash, built only when a left state brings more probes than the scan
   join takes. *)
type left_side = {
  l_roles : Bytes.t;
  plan : (Event.t * int * int) list;
  plan_len : int;
}

type right_side = {
  r_roles : Bytes.t;
  mutable index : (int, (Event.t * int) list) Hashtbl.t option;
}

let classify role row =
  let roles = Bytes.make (List.length row) free in
  List.iteri
    (fun k (l, _, _) ->
      match l with
      | Event.Tau -> ()
      | Event.Tick -> Bytes.unsafe_set roles k ticks
      | Event.Vis e -> Bytes.unsafe_set roles k (role e))
    row;
  roles

(* [role] remembered for the last channel it was asked about, when the
   [sets] it reads decide membership by channel alone. A channel's events
   come in runs (a leaf's row is sorted by label, and a composition's row
   strings its children's rows together), so the bus's row of 156
   messages on seven channels costs seven interface tests. Names are
   compared physically: the events stepped from one prefix share its
   name, and a miss only costs a test. *)
let per_channel sets role =
  if not (List.for_all Eventset.by_channel sets) then role
  else
    let last = ref None in
    fun (e : Event.t) ->
      match !last with
      | Some (chan, r) when chan == e.chan -> r
      | _ ->
        let r = role e in
        last := Some (e.chan, r);
        r

(* Parallel composition at the graph level, replicating the term rules of
   [Semantics.par_trans] exactly: free moves (tau always; visible when not
   synchronized and allowed on that side), synchronized moves on equal
   events, and a joint tick to a terminal state. States are pairs of
   component states; (-1, -1) encodes the terminated process Omega.
   [roles] gives a visible event's role on the left and on the right side
   ([None] for an interleaving, where every visible event is free); the
   role functions run once per edge of each child state, never per pair,
   so a row of the bus's 156 messages is tested against the interface
   once however many pairs hold it. The right side's synchronizing
   transitions are indexed by event once per right state when the left
   brings many probes, turning the quadratic sync match of the term
   semantics into a hash lookup per left transition.

   Row order is a contract: free moves of the left row, then the right
   row in order with the scan join's matches in place, then the index
   join's matches, then the joint tick, each pushed in turn onto a list
   that the row is the reverse of. [compile_staged] numbers states in that
   order, and checkpoint digests and bisim's representatives go by the
   numbering; [test/fixtures/par_order.csp] pins it. *)
let par_comp env ~roles ~mk left right =
  let ids : int Pair_tbl.t = Pair_tbl.create 64 in
  let pairs = Dyn.create (0, 0) in
  let memo = Dyn.create None in
  let intern p =
    match Pair_tbl.find_opt ids p with
    | Some i -> i
    | None ->
      charge env;
      let i = pairs.Dyn.len in
      Dyn.push pairs p;
      Dyn.push memo None;
      Pair_tbl.add ids p i;
      i
  in
  let c_initial = intern (left.c_initial, right.c_initial) in
  (* Edges arrive hash-annotated from the children, so the deep structural
     hash of a payload-carrying event is never recomputed: [plan] only
     filters a left row by its roles, and the index buckets a right row by
     the annotated hash (int-keyed buckets, with [Event.equal] resolving
     collisions, keep the table itself free of deep hashing on probe). *)
  let lefts : (int, left_side) Hashtbl.t = Hashtbl.create 16 in
  let left_side role_left il lt =
    match Hashtbl.find_opt lefts il with
    | Some side -> side
    | None ->
      let l_roles = classify role_left lt in
      let plan = ref [] and plan_len = ref 0 in
      List.iteri
        (fun k (l, h, il') ->
          match l with
          | Event.Vis e when Bytes.unsafe_get l_roles k = synced ->
            plan := (e, h, il') :: !plan;
            incr plan_len
          | Event.Vis _ | Event.Tau | Event.Tick -> ())
        lt;
      let side = { l_roles; plan = List.rev !plan; plan_len = !plan_len } in
      Hashtbl.replace lefts il side;
      side
  in
  let rights : (int, right_side) Hashtbl.t = Hashtbl.create 16 in
  let right_side role_right ir rt =
    match Hashtbl.find_opt rights ir with
    | Some side -> side
    | None ->
      let side = { r_roles = classify role_right rt; index = None } in
      Hashtbl.replace rights ir side;
      side
  in
  let right_index side rt =
    match side.index with
    | Some idx -> idx
    | None ->
      let idx : (int, (Event.t * int) list) Hashtbl.t = Hashtbl.create 16 in
      List.iteri
        (fun k (l, h, jr) ->
          match l with
          | Event.Vis e when Bytes.unsafe_get side.r_roles k = synced ->
            let entries =
              match Hashtbl.find_opt idx h with
              | Some es -> es
              | None -> []
            in
            Hashtbl.replace idx h ((e, jr) :: entries)
          | Event.Vis _ | Event.Tau | Event.Tick -> ())
        rt;
      side.index <- Some idx;
      idx
  in
  (* With only a handful of probes, scanning the right row beats paying
     the index's full-row hashing — the asymmetric case (a few agents
     composed against a bulky intruder) is exactly where index building
     used to dominate. *)
  let scan_join_max = 16 in
  let c_step i =
    match Dyn.get memo i with
    | Some ts -> ts
    | None ->
      let il, ir = Dyn.get pairs i in
      let ts =
        if il = -1 then [] (* Omega *)
        else begin
          let lt = left.c_step il and rt = right.c_step ir in
          let acc = ref [] and l_tick = ref false and r_tick = ref false in
          (match roles with
           | None ->
             (* an interleaving: every edge but a tick is a free move *)
             List.iter
               (fun (l, h, il') ->
                 match l with
                 | Event.Tick -> l_tick := true
                 | Event.Tau | Event.Vis _ ->
                   acc := (l, h, intern (il', ir)) :: !acc)
               lt;
             List.iter
               (fun (l, h, ir') ->
                 match l with
                 | Event.Tick -> r_tick := true
                 | Event.Tau | Event.Vis _ ->
                   acc := (l, h, intern (il, ir')) :: !acc)
               rt
           | Some (role_left, role_right) ->
             let ls = left_side role_left il lt
             and rs = right_side role_right ir rt in
             let plan = ls.plan in
             let scan_join = ls.plan_len > 0 && ls.plan_len <= scan_join_max in
             (* single pass per side: free moves, the scan join and tick
                detection all ride one traversal of each (large) row *)
             List.iteri
               (fun k (l, h, il') ->
                 let role = Bytes.unsafe_get ls.l_roles k in
                 if role = free then acc := (l, h, intern (il', ir)) :: !acc
                 else if role = ticks then l_tick := true)
               lt;
             List.iteri
               (fun k (l, h, ir') ->
                 let role = Bytes.unsafe_get rs.r_roles k in
                 if role = free then acc := (l, h, intern (il, ir')) :: !acc
                 else if role = synced && scan_join then begin
                   match l with
                   | Event.Vis e ->
                     List.iter
                       (fun (el, hl, il') ->
                         (* annotated hashes make most rejections one int
                            compare instead of a structural descent *)
                         if hl = h && Event.equal el e then
                           acc := (l, h, intern (il', ir')) :: !acc)
                       plan
                   | Event.Tau | Event.Tick -> ()
                 end
                 else if role = ticks then r_tick := true)
               rt;
             if (not scan_join) && plan <> [] then begin
               let idx = right_index rs rt in
               List.iter
                 (fun (e, h, il') ->
                   match Hashtbl.find_opt idx h with
                   | None -> ()
                   | Some entries ->
                     List.iter
                       (fun (er, jr) ->
                         if Event.equal e er then
                           acc := (Event.Vis e, h, intern (il', jr)) :: !acc)
                       entries)
                 plan
             end);
          if !l_tick && !r_tick then
            acc := (Event.Tick, 0, intern (-1, -1)) :: !acc;
          (* deliberately unsorted: children's rows are deduplicated and
             deterministic, free moves and sync joins cannot introduce
             duplicates, and only the materialized root graph needs the
             canonical edge order. Sorting here again would re-walk deep
             event comparisons at every level of a composition spine —
             the dominant cost on interleavings of many small cells. *)
          !acc
        end
      in
      Dyn.set memo i (Some ts);
      ts
  in
  let c_term i =
    let il, ir = Dyn.get pairs i in
    if il = -1 then Proc.omega else mk (left.c_term il) (right.c_term ir)
  in
  { c_initial; c_body = c_initial; c_step; c_term; c_reserve = reserver env }

(* Hiding and renaming relabel the inner node's transitions in place —
   they share the inner state space (no new states to charge). A tick
   target denotes Omega in the inner node already, and stays bare Omega
   rather than being wrapped, matching the term semantics. *)
let hide_comp set inner =
  let memo : (int, (Event.label * int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let c_step i =
    match Hashtbl.find_opt memo i with
    | Some ts -> ts
    | None ->
      let ts =
        List.map
          (fun ((l, _, j) as edge) ->
            match l with
            | Event.Vis e when Eventset.mem set e -> Event.Tau, 0, j
            | _ -> edge)
          (inner.c_step i)
      in
      Hashtbl.replace memo i ts;
      ts
  in
  let c_term i =
    let t = inner.c_term i in
    if Proc.equal t Proc.omega then t else Proc.hide (t, set)
  in
  { inner with c_step; c_term }

let rename_comp mapping inner =
  let memo : (int, (Event.label * int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let c_step i =
    match Hashtbl.find_opt memo i with
    | Some ts -> ts
    | None ->
      let ts =
        List.map
          (fun ((l, _, j) as edge) ->
            match l with
            | Event.Vis e -> (
              match List.assoc_opt e.Event.chan mapping with
              | None -> edge
              | Some chan ->
                let e' = { e with Event.chan } in
                Event.Vis e', Event.hash e', j)
            | Event.Tau | Event.Tick -> edge)
          (inner.c_step i)
      in
      Hashtbl.replace memo i ts;
      ts
  in
  let c_term i =
    let t = inner.c_term i in
    if Proc.equal t Proc.omega then t else Proc.rename (t, mapping)
  in
  { inner with c_step; c_term }

(* A named call unfolded into a composition keeps a state of its own, as
   the raw stepper does: until a component first moves, the term is the
   call itself, not its body. The call state steps as the body's initial
   state and nothing ever re-enters it, so it takes an id reserved in the
   body's space and shares the body's initial row — no row is copied or
   renumbered, and no state table grows. *)
let call_comp call inner =
  let r = inner.c_reserve () in
  {
    inner with
    c_initial = r;
    c_step = (fun i -> inner.c_step (if i = r then inner.c_initial else i));
    c_term = (fun i -> if i = r then call else inner.c_term i);
  }

(* Resolve a named call to its (folded) body so the decomposition can see
   through definitions like SYS = A [|..|] B. Any evaluation problem means
   the call is left as a leaf, where stepping it reports the same error
   the raw engine would. *)
let unfold_call env f args =
  match Defs.proc env.defs f with
  | None -> None
  | Some (params, body) ->
    if List.length params <> List.length args then None
    else (
      try
        let values =
          List.map
            (fun e -> Expr.eval ~tys:env.tys env.fenv Expr.empty_env e)
            args
        in
        let bindings = List.combine params values in
        let resolve x = List.assoc_opt x bindings in
        Some (Proc.const_fold ~tys:env.tys env.fenv (Proc.subst resolve body))
      with Expr.Eval_error _ -> None)

let is_composition p =
  match Proc.view p with
  | Proc.Par _ | Proc.APar _ | Proc.Inter _ | Proc.Hide _ | Proc.Rename _ ->
    true
  | _ -> false

let rec build env depth term =
  match Proc.view term with
  | Proc.Par (p, iface, q) ->
    let l = build env depth p in
    let r = build env depth q in
    let role e = if Eventset.mem iface e then synced else free in
    par_comp env
      ~roles:(Some (per_channel [ iface ] role, per_channel [ iface ] role))
      ~mk:(fun a b -> Proc.par (a, iface, b))
      l r
  | Proc.APar (p, alpha_a, alpha_b, q) ->
    let l = build env depth p in
    let r = build env depth q in
    (* an event of one side's alphabet synchronises when it is in the
       other's too; outside its own alphabet a side may not perform it *)
    let role own other e =
      if not (Eventset.mem own e) then dropped
      else if Eventset.mem other e then synced
      else free
    in
    let alphas = [ alpha_a; alpha_b ] in
    par_comp env
      ~roles:
        (Some
           ( per_channel alphas (role alpha_a alpha_b),
             per_channel alphas (role alpha_b alpha_a) ))
      ~mk:(fun a b -> Proc.apar (a, alpha_a, alpha_b, b))
      l r
  | Proc.Inter (p, q) ->
    let l = build env depth p in
    let r = build env depth q in
    par_comp env ~roles:None ~mk:(fun a b -> Proc.inter (a, b))
      l r
  | Proc.Hide (p, set) -> hide_comp set (build env depth p)
  | Proc.Rename (p, mapping) -> rename_comp mapping (build env depth p)
  | Proc.Call (f, args) when depth < 64 -> (
    match unfold_call env f args with
    | Some body when is_composition body ->
      call_comp term (build env (depth + 1) body)
    | Some _ | None -> leaf_comp env term)
  | _ -> leaf_comp env term

(* A state is its term, as in the raw compiler, but two tree states can
   denote one term: hiding a term twice under one set is hiding it once,
   and likewise for renaming. Such twins are rare, so they are merged
   after the fact: the first-discovered state of each term stands for all
   of them, and a second breadth-first pass over the representatives'
   rows renumbers what they reach — exactly the numbering a compile that
   merged on discovery would give. Without twins the graph is returned
   as it is. *)
let merge_equal_terms states rows =
  let n = Array.length states in
  let first = Proc_tbl.create n in
  let rep =
    Array.mapi
      (fun i t ->
        match Proc_tbl.find_opt first t with
        | Some j -> j
        | None ->
          Proc_tbl.add first t i;
          i)
      states
  in
  if Proc_tbl.length first = n then states, rows
  else begin
    let map = Array.make n (-1) in
    let order = Dyn.create 0 in
    let queue = Queue.create () in
    let admit i =
      let r = rep.(i) in
      if map.(r) < 0 then begin
        map.(r) <- order.Dyn.len;
        Dyn.push order r;
        Queue.add r queue
      end;
      map.(r)
    in
    let (_ : int) = admit 0 in
    let merged = Dyn.create [] in
    while not (Queue.is_empty queue) do
      let r = Queue.take queue in
      Dyn.push merged (List.map (fun (l, j) -> l, admit j) rows.(r))
    done;
    let m = order.Dyn.len in
    ( Array.init m (fun k -> states.(Dyn.get order k)),
      Array.init m (Dyn.get merged) )
  end

(* Merge the twins, then put rows in the raw stepper's order — by label,
   then by target term — so a search over the graph meets successors in
   the order the raw engine does. Sorting after admission keeps the
   discovery-order numbering. *)
let finish states rows =
  let states, rows = merge_equal_terms states rows in
  let by_label_then_term (l1, j1) (l2, j2) =
    let c = Event.compare_label l1 l2 in
    if c <> 0 then c else Proc.compare states.(j1) states.(j2)
  in
  {
    Lts.initial = 0;
    states;
    transitions = Array.map (List.sort_uniq by_label_then_term) rows;
  }

let compile_staged ?(max_states = 1_000_000) ?(budget = Budget.create ())
    ?(obs = Obs.silent) defs root =
  Obs.span obs "reduce.compile_staged" (fun () ->
      let fenv = Defs.fenv defs in
      let tys = Defs.ty_lookup defs in
      let root = Proc.const_fold ~tys fenv root in
      let env =
        {
          step = Semantics.make_cached ~obs ~budget defs;
          defs;
          fenv;
          tys;
          max_states;
          interned = 0;
          stop = budget;
        }
      in
      let c_states = Obs.counter obs "reduce.staged_states" in
      (* BFS-materialize the root node's reachable graph. Dense ids are
         assigned in discovery order, so the rows pushed per dequeue line
         up with them (FIFO: dequeue order = discovery order). The table
         starts small: a 1024-bucket one went straight to the major heap
         on every compile, however few states the term had. *)
      let dense : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let order = Dyn.create 0 in
      let rows : (Event.label * int) list Dyn.t = Dyn.create [] in
      let queue = Queue.create () in
      match
        let comp = build env 0 root in
        let admit ci =
          match Hashtbl.find_opt dense ci with
          | Some di -> di
          | None ->
            let di = order.Dyn.len in
            Hashtbl.add dense ci di;
            Dyn.push order ci;
            Queue.add ci queue;
            di
        in
        (* A root that is a named composition's call starts at the body's
           initial state; [with_root_call] restores the call state. *)
        let (_ : int) = admit comp.c_body in
        while not (Queue.is_empty queue) do
          let ci = Queue.take queue in
          let ts = comp.c_step ci in
          Dyn.push rows (List.map (fun (l, _, cj) -> l, admit cj) ts)
        done;
        comp
      with
      | comp ->
        let n = order.Dyn.len in
        let g =
          finish
            (Array.init n (fun di -> comp.c_term (Dyn.get order di)))
            (Array.init n (Dyn.get rows))
        in
        Obs.add c_states (Lts.num_states g);
        Lts.Complete g
      | exception Budget.Exhausted reason ->
        (* What the budget was charged for: the states every tree node
           interned, the one that overran it excluded. The frontier counts
           the root state being expanded, or the root itself when the stop
           came while the tree was being built. *)
        Lts.Partial
          {
            Lts.interned = min max_states env.interned;
            frontier = Queue.length queue + 1;
            reason;
          })

(* The raw graph's initial state is the root term itself. When the root
   is a named composition's call, [compile_staged]'s state 0 is the body's
   initial state instead, and the call state steps as it and is never
   re-entered. If something re-enters state 0, the raw graph holds both,
   and the call state is numbered last, sharing state 0's row; otherwise
   the call state takes state 0's place under the call's term. Only the
   counterexample search needs this graph; the passes reduce the one
   without the call state, and copying every compiled graph's arrays to
   add the state slowed down checks that hold. *)
let with_root_call defs root (lts : Lts.t) =
  let root = Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) root in
  let states = lts.Lts.states and transitions = lts.Lts.transitions in
  if Proc.equal states.(0) root then lts
  else if Array.exists (List.exists (fun (_, j) -> j = 0)) transitions then
    {
      Lts.initial = Array.length states;
      states = Array.append states [| root |];
      transitions = Array.append transitions [| transitions.(0) |];
    }
  else begin
    let states = Array.copy states in
    states.(0) <- root;
    { lts with Lts.states }
  end

(* The hidings at a term's root, peeled off: [P \ H1 \ ... \ Hn] is
   [(P, [H1; ...; Hn])], innermost set first. *)
let split_hiding root =
  let rec go p sets =
    match Proc.view p with
    | Proc.Hide (q, set) -> go q (set :: sets)
    | _ -> p, sets
  in
  go root []

(* The staged graph of [P \ H1 \ ... \ Hn] from the staged graph of [P].
   A hiding node shares its inner node's states ([hide_comp]), so the
   hidden compile discovers the same states in the same order, relabels
   each row in place and wraps each term; this does the same to the
   compiled graph. Wrapping makes twins only of a body that reaches both
   x and x \ H. The states of a composition node are all compositions
   of one shape, which wrapping keeps apart, so such a body is a leaf:
   its rows come from the semantics already in this graph's row order,
   which is the order the hidden compile's merge walks them in. So
   [finish] merges and numbers the twins exactly as [compile_staged]
   does for the hidden term. *)
let hide_staged sets (g : Lts.t) =
  match sets with
  | [] -> g
  | _ ->
    let hidden e = List.exists (fun set -> Eventset.mem set e) sets in
    let wrap t =
      if Proc.equal t Proc.omega then t
      else List.fold_left (fun t set -> Proc.hide (t, set)) t sets
    in
    finish
      (Array.map wrap g.Lts.states)
      (Array.map
         (List.map (fun ((l, j) as edge) ->
              match l with
              | Event.Vis e when hidden e -> Event.Tau, j
              | Event.Vis _ | Event.Tau | Event.Tick -> edge))
         g.Lts.transitions)

(* ------------------------------------------------------------------ *)
(* Graph passes                                                        *)
(* ------------------------------------------------------------------ *)

(* Drop states unreachable from the initial one and renumber densely in
   BFS discovery order. *)
let restrict_reachable (lts : Lts.t) =
  let n = Array.length lts.Lts.states in
  let map = Array.make n (-1) in
  let order = Dyn.create 0 in
  let queue = Queue.create () in
  let admit i =
    if map.(i) < 0 then begin
      map.(i) <- order.Dyn.len;
      Dyn.push order i;
      Queue.add i queue
    end
  in
  admit lts.Lts.initial;
  while not (Queue.is_empty queue) do
    let i = Queue.take queue in
    List.iter (fun (_, j) -> admit j) lts.Lts.transitions.(i)
  done;
  let m = order.Dyn.len in
  if m = n then lts
  else
    {
      Lts.initial = map.(lts.Lts.initial);
      states = Array.init m (fun k -> lts.Lts.states.(Dyn.get order k));
      transitions =
        Array.init m (fun k ->
            sort_edges
              (List.map
                 (fun (l, j) -> l, map.(j))
                 lts.Lts.transitions.(Dyn.get order k)));
    }

(* The labels the specification is insensitive to: visible labels with a
   self-loop at every normal-form node. Such a label can never move the
   spec, cause a violation, or mask one.

   Exact, but lazy: the candidates start as the initial node's
   self-loops, and the walk visits nodes in id order, forcing each one's
   edges so that it reaches every node, until no candidate is left —
   often at the first node, with nothing forced. A normal form whose
   states outgrow the budget before the walk ends yields no label, which
   hides nothing and is always sound (and does not depend on which nodes
   were built before). *)
let spec_free_labels norm =
  let form = Normalise.form norm in
  let free = Label_tbl.create 8 in
  (try
     let init = Normalise.initial norm in
     List.iter
       (fun l ->
         if Event.is_visible l then Label_tbl.replace free l ())
       (Normalise.self_loops norm init);
     let node = ref init in
     while
       Label_tbl.length free > 0 && !node < Normalise.num_nodes form
     do
       let i = !node in
       if i <> init then
         List.iter (Label_tbl.remove free)
           (Label_tbl.fold
              (fun l () acc ->
                if Normalise.after norm i l = Some i then acc else l :: acc)
              free []);
       if Label_tbl.length free > 0 then begin
         ignore (Normalise.afters norm i);
         if Normalise.num_states form > Normalise.max_states norm then
           raise (Budget.Exhausted States)
       end;
       incr node
     done
   with Budget.Exhausted States -> Label_tbl.reset free);
  free

(* Dead-event hiding (traces only): relabel spec-free events to tau. The
   product reachable under the relabelled graph is identical (the spec
   node never moved on these labels anyway), and tau compression can then
   collapse the runs they formed. *)
let hide_dead ~norm (lts : Lts.t) =
  let free = spec_free_labels norm in
  if Label_tbl.length free = 0 then lts
  else
    {
      lts with
      Lts.transitions =
        Array.map
          (fun ts ->
            sort_edges
              (List.map
                 (fun (l, j) ->
                   if Label_tbl.mem free l then Event.Tau, j else l, j)
                 ts))
          lts.Lts.transitions;
    }

exception Pass_too_big

(* Full tau elimination (traces only): each state adopts the visible
   edges of its tau closure; states only reachable through tau chains
   fall away. Preserves the visible-trace set exactly; discards stability
   and divergence, which the traces model ignores.

   Closures are computed once per tau-SCC over the condensation in
   reverse topological order (SCC ids are already in that order), so the
   pass is linear in the size of its own output. Genuine closure
   blow-ups — the output of tau elimination can be quadratic — abort the
   pass and return the graph unchanged. *)
let tau_eliminate (lts : Lts.t) =
  let n = Array.length lts.Lts.states in
  let scc, nscc = Lts.tau_sccs lts in
  let members = Array.make (max 1 nscc) [] in
  for i = n - 1 downto 0 do
    members.(scc.(i)) <- i :: members.(scc.(i))
  done;
  let vis = Array.make (max 1 nscc) [] in
  let work = ref 0 in
  let work_cap = max 1_000_000 (8 * Lts.num_transitions lts) in
  match
    for c = 0 to nscc - 1 do
      let own = ref [] and succs = ref [] in
      List.iter
        (fun i ->
          List.iter
            (fun (l, j) ->
              match l with
              | Event.Tau -> if scc.(j) <> c then succs := scc.(j) :: !succs
              | _ -> own := (l, j) :: !own)
            lts.Lts.transitions.(i))
        members.(c);
      let all =
        List.fold_left
          (fun acc c' -> List.rev_append vis.(c') acc)
          !own
          (List.sort_uniq Int.compare !succs)
      in
      work := !work + List.length all;
      if !work > work_cap then raise Pass_too_big;
      vis.(c) <- sort_edges all
    done
  with
  | () ->
    restrict_reachable
      {
        lts with
        Lts.transitions = Array.init n (fun i -> vis.(scc.(i)));
      }
  | exception Pass_too_big -> lts

(* Failures/FD-safe tau compression: collapse each tau-SCC to its
   smallest member, keeping a tau self-loop on merged representatives so
   instability and divergence survive. Every member of a non-trivial
   tau-SCC is unstable and divergent, and those are exactly the
   properties the failures and FD checks read off tau edges. *)
let tau_scc_collapse (lts : Lts.t) =
  let n = Array.length lts.Lts.states in
  let scc, nscc = Lts.tau_sccs lts in
  let size = Array.make (max 1 nscc) 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc;
  if not (Array.exists (fun s -> s >= 2) size) then lts
  else begin
    let rep = Array.make nscc max_int in
    for i = n - 1 downto 0 do
      if i < rep.(scc.(i)) then rep.(scc.(i)) <- i
    done;
    let target i = rep.(scc.(i)) in
    let rows = Array.make n [] in
    for i = n - 1 downto 0 do
      let r = target i in
      rows.(r) <-
        List.rev_append
          (List.map (fun (l, j) -> l, target j) lts.Lts.transitions.(i))
          rows.(r)
    done;
    let rows =
      Array.mapi
        (fun i ts ->
          if i = target i then
            let ts =
              if size.(scc.(i)) >= 2 then (Event.Tau, i) :: ts else ts
            in
            sort_edges ts
          else [])
        rows
    in
    restrict_reachable
      {
        Lts.initial = target lts.Lts.initial;
        states = lts.Lts.states;
        transitions = rows;
      }
  end

(* Strong-bisimulation quotient by signature refinement: start from one
   block, repeatedly split blocks by the multiset of (label, target
   block) signatures until the partition is stable — the coarsest strong
   bisimulation. Sound in every model (strong bisimilarity preserves
   traces, failures and divergence). Block ids are assigned in
   first-member order and the smallest member represents each block, so
   the quotient is deterministic. *)
let bisim_state_cap = 50_000

let bisim_quotient (lts : Lts.t) =
  let n = Array.length lts.Lts.states in
  if n <= 1 || n > bisim_state_cap then lts
  else begin
    let labels =
      List.sort_uniq Event.compare_label
        (Array.fold_left
           (fun acc ts -> List.fold_left (fun acc (l, _) -> l :: acc) acc ts)
           [] lts.Lts.transitions)
    in
    let lid = Label_tbl.create 64 in
    List.iteri (fun k l -> Label_tbl.replace lid l k) labels;
    let row =
      Array.map
        (fun ts -> List.map (fun (l, j) -> Label_tbl.find lid l, j) ts)
        lts.Lts.transitions
    in
    let block = Array.make n 0 in
    let nblocks = ref 1 in
    let changed = ref true in
    while !changed do
      let sigs : (int * (int * int) list, int) Hashtbl.t = Hashtbl.create n in
      let next = Array.make n 0 in
      let count = ref 0 in
      for i = 0 to n - 1 do
        let s =
          List.sort_uniq compare
            (List.map (fun (l, j) -> l, block.(j)) row.(i))
        in
        let key = block.(i), s in
        match Hashtbl.find_opt sigs key with
        | Some b -> next.(i) <- b
        | None ->
          let b = !count in
          incr count;
          Hashtbl.replace sigs key b;
          next.(i) <- b
      done;
      if !count = !nblocks then changed := false
      else begin
        Array.blit next 0 block 0 n;
        nblocks := !count
      end
    done;
    if !nblocks = n then lts
    else begin
      let m = !nblocks in
      let rep = Array.make m (-1) in
      for i = n - 1 downto 0 do
        rep.(block.(i)) <- i
      done;
      let states = Array.init m (fun b -> lts.Lts.states.(rep.(b))) in
      let transitions =
        Array.init m (fun b ->
            sort_edges
              (List.map
                 (fun (l, j) -> l, block.(j))
                 lts.Lts.transitions.(rep.(b))))
      in
      { Lts.initial = block.(lts.Lts.initial); states; transitions }
    end
  end

type pass_stat = { pass : string; states_before : int; states_after : int }

let apply ?(obs = Obs.silent) ~model ~norm pipeline lts =
  let run name f (lts, stats) =
    Obs.span obs ("reduce." ^ name) (fun () ->
        let states_before = Lts.num_states lts in
        let lts = f lts in
        let states_after = Lts.num_states lts in
        Obs.add
          (Obs.counter obs ("reduce." ^ name ^ ".states_before"))
          states_before;
        Obs.add
          (Obs.counter obs ("reduce." ^ name ^ ".states_after"))
          states_after;
        lts, { pass = name; states_before; states_after } :: stats)
  in
  let lts, stats =
    List.fold_left
      (fun acc p ->
        match p with
        | Dead_events -> run "dead" (hide_dead ~norm) acc
        | Tau_compress -> (
          match model with
          | `Traces -> run "tau" tau_eliminate acc
          | `Failures | `Fd -> run "tau" tau_scc_collapse acc)
        | Bisim -> run "bisim" bisim_quotient acc)
      (lts, [])
      (effective ~model pipeline)
  in
  lts, List.rev stats
