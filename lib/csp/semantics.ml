exception Unguarded of string
exception Ill_formed of string

(* Maximum number of call/conditional unfoldings while computing the
   transitions of a single term. A well-formed script guards recursion with
   a prefix, so genuine chains are short; exceeding the limit means an
   unguarded recursion like [P = P [] Q]. *)
let unfold_limit = 1_000

let err fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* Expand a prefix [c it1...itn -> p] into ground communications.
   Returns one (event, continuation) pair per combination of input values.
   Bindings accumulate left to right so later fields and the continuation
   see earlier binders. *)
let expand_prefix defs chan items cont =
  let tys =
    match Defs.channel_type defs chan with
    | Some tys -> tys
    | None -> raise (Defs.Unknown_channel chan)
  in
  if List.length tys <> List.length items then
    err "prefix on %s has %d fields but the channel declares %d" chan
      (List.length items) (List.length tys);
  let fenv = Defs.fenv defs in
  let ty_lookup = Defs.ty_lookup defs in
  let eval_in bindings e =
    let env = Expr.bind_all bindings Expr.empty_env in
    Expr.eval ~tys:ty_lookup fenv env e
  in
  (* combos: list of (bindings, reversed argument values) *)
  let step combos (item, ty) =
    match item with
    | Proc.Out e ->
      List.map
        (fun (bindings, args) ->
          let v = eval_in bindings e in
          if not (Ty.contains ty_lookup ty v) then
            err "value %s outside the domain of a field of channel %s"
              (Value.to_string v) chan;
          bindings, v :: args)
        combos
    | Proc.In (x, restr) ->
      List.concat_map
        (fun (bindings, args) ->
          let base = Defs.domain defs ty in
          let values =
            match restr with
            | None -> base
            | Some set_expr ->
              let env = Expr.bind_all bindings Expr.empty_env in
              let allowed = Expr.eval_set ~tys:ty_lookup fenv env set_expr in
              List.filter (fun v -> List.exists (Value.equal v) allowed) base
          in
          List.map (fun v -> (x, v) :: bindings, v :: args) values)
        combos
  in
  let combos = List.fold_left step [ ([], []) ] (List.combine items tys) in
  List.map
    (fun (bindings, rev_args) ->
      let event = Event.event chan (List.rev rev_args) in
      let resolve x = List.assoc_opt x bindings in
      let cont' = Proc.const_fold ~tys:ty_lookup fenv (Proc.subst resolve cont) in
      Event.Vis event, cont')
    combos

(* The transition relation, parameterized over a memo for recursive
   calls. [trans] is compositional in the term ([depth] only guards
   unguarded recursion), so its value may be cached per {e subterm}: a
   parallel composition of n cells then recomputes only the O(spine)
   terms an event actually rewrote, instead of re-deriving every cell's
   transitions in every state that contains it. [spend n] is told of the
   pairs each synchronisation join tries. *)
let transitions_via lookup store ~spend defs proc =
  let fenv = Defs.fenv defs in
  let ty_lookup = Defs.ty_lookup defs in
  let fold p = Proc.const_fold ~tys:ty_lookup fenv p in
  (* Split transitions of a parallel operand into (taus, ticks, syncing
     visibles, free visibles) according to a synchronization predicate. *)
  let rec trans depth p : (Event.label * Proc.t) list =
    match lookup p with
    | Some ts -> ts
    | None ->
      let ts = compute depth p in
      store p ts;
      ts
  and compute depth p : (Event.label * Proc.t) list =
    if depth > unfold_limit then
      raise (Unguarded (Proc.to_string p));
    match Proc.view p with
    | Proc.Stop | Proc.Omega -> []
    | Proc.Skip -> [ Event.Tick, Proc.omega ]
    | Proc.Prefix (chan, items, cont) -> expand_prefix defs chan items cont
    | Proc.Ext (p1, p2) ->
      let resolve_side mk =
        List.map (fun (l, t) ->
          match l with
          | Event.Tau -> Event.Tau, mk t
          | Event.Tick -> Event.Tick, Proc.omega
          | Event.Vis _ -> l, t)
      in
      resolve_side (fun t -> Proc.ext (t, p2)) (trans depth p1)
      @ resolve_side (fun t -> Proc.ext (p1, t)) (trans depth p2)
    | Proc.Int (p1, p2) -> [ Event.Tau, p1; Event.Tau, p2 ]
    | Proc.Seq (p1, p2) ->
      List.map
        (fun (l, t) ->
          match l with
          | Event.Tick -> Event.Tau, p2
          | Event.Tau | Event.Vis _ -> l, Proc.seq (t, p2))
        (trans depth p1)
    | Proc.Par (p1, iface, p2) ->
      let sync e = Eventset.mem iface e in
      par_trans depth p1 p2 ~sync ~allowed_left:(fun _ -> true)
        ~allowed_right:(fun _ -> true)
        ~mk:(fun a b -> Proc.par (a, iface, b))
    | Proc.APar (p1, alpha_a, alpha_b, p2) ->
      let sync e = Eventset.mem alpha_a e && Eventset.mem alpha_b e in
      par_trans depth p1 p2 ~sync
        ~allowed_left:(fun e -> Eventset.mem alpha_a e)
        ~allowed_right:(fun e -> Eventset.mem alpha_b e)
        ~mk:(fun a b -> Proc.apar (a, alpha_a, alpha_b, b))
    | Proc.Inter (p1, p2) ->
      par_trans depth p1 p2 ~sync:(fun _ -> false)
        ~allowed_left:(fun _ -> true) ~allowed_right:(fun _ -> true)
        ~mk:(fun a b -> Proc.inter (a, b))
    | Proc.Interrupt (p1, p2) ->
      (* P events continue under the interrupt; any visible event of Q
         takes over for good; Q's taus resolve its internal state without
         giving up on P; ticks of either side terminate. *)
      let from_p =
        List.map
          (fun (l, t) ->
            match l with
            | Event.Tick -> Event.Tick, Proc.omega
            | Event.Tau | Event.Vis _ -> l, Proc.interrupt (t, p2))
          (trans depth p1)
      in
      let from_q =
        List.map
          (fun (l, t) ->
            match l with
            | Event.Tau -> Event.Tau, Proc.interrupt (p1, t)
            | Event.Tick -> Event.Tick, Proc.omega
            | Event.Vis _ -> l, t)
          (trans depth p2)
      in
      from_p @ from_q
    | Proc.Timeout (p1, p2) ->
      (* sliding choice: P's visible events commit to P; at any moment a
         tau may withdraw P in favour of Q. *)
      let from_p =
        List.map
          (fun (l, t) ->
            match l with
            | Event.Tau -> Event.Tau, Proc.timeout (t, p2)
            | Event.Tick -> Event.Tick, Proc.omega
            | Event.Vis _ -> l, t)
          (trans depth p1)
      in
      (Event.Tau, p2) :: from_p
    | Proc.Hide (p1, set) ->
      List.map
        (fun (l, t) ->
          match l with
          | Event.Vis e when Eventset.mem set e -> Event.Tau, Proc.hide (t, set)
          | Event.Tick -> Event.Tick, Proc.omega
          | Event.Tau | Event.Vis _ -> l, Proc.hide (t, set))
        (trans depth p1)
    | Proc.Rename (p1, mapping) ->
      List.map
        (fun (l, t) ->
          match l with
          | Event.Vis e ->
            let chan =
              match List.assoc_opt e.Event.chan mapping with
              | Some c' -> c'
              | None -> e.Event.chan
            in
            Event.Vis { e with Event.chan }, Proc.rename (t, mapping)
          | Event.Tick -> Event.Tick, Proc.omega
          | Event.Tau -> Event.Tau, Proc.rename (t, mapping))
        (trans depth p1)
    | Proc.If (cond, p1, p2) ->
      let b =
        try Expr.eval_bool ~tys:ty_lookup fenv Expr.empty_env cond
        with Expr.Eval_error msg -> err "if condition: %s" msg
      in
      trans (depth + 1) (if b then p1 else p2)
    | Proc.Guard (cond, p1) ->
      let b =
        try Expr.eval_bool ~tys:ty_lookup fenv Expr.empty_env cond
        with Expr.Eval_error msg -> err "guard: %s" msg
      in
      if b then trans (depth + 1) p1 else []
    | Proc.Call (f, args) ->
      (match Defs.proc defs f with
       | None -> err "call to unknown process %s" f
       | Some (params, body) ->
         if List.length params <> List.length args then
           err "process %s expects %d arguments, got %d" f (List.length params)
             (List.length args);
         let values =
           List.map
             (fun e ->
               try Expr.eval ~tys:ty_lookup fenv Expr.empty_env e
               with Expr.Eval_error msg ->
                 err "argument of %s: %s" f msg)
             args
         in
         let bindings = List.combine params values in
         let resolve x = List.assoc_opt x bindings in
         trans (depth + 1) (fold (Proc.subst resolve body)))
    | Proc.Ext_over _ | Proc.Int_over _ | Proc.Inter_over _ ->
      (* const_fold expands closed replicated choices; reaching here means
         the set was not closed, i.e. the term is not ground. *)
      let folded = fold p in
      if Proc.equal folded p then err "replicated choice over a non-ground set"
      else trans (depth + 1) folded
    | Proc.Run set ->
      List.map (fun e -> Event.Vis e, p) (Defs.events_of defs set)
    | Proc.Chaos set ->
      (Event.Tau, Proc.stop)
      :: List.map (fun e -> Event.Vis e, p) (Defs.events_of defs set)
  and par_trans depth p1 p2 ~sync ~allowed_left ~allowed_right ~mk =
    let t1 = trans depth p1 in
    let t2 = trans depth p2 in
    let free side_allowed mk_side ts =
      List.filter_map
        (fun (l, t) ->
          match l with
          | Event.Tau -> Some (Event.Tau, mk_side t)
          | Event.Vis e when (not (sync e)) && side_allowed e ->
            Some (l, mk_side t)
          | Event.Vis _ | Event.Tick -> None)
        ts
    in
    (* A side can offer one move more than once ([Q [] Q] offers each of
       Q's moves twice), and the join below pairs every copy on one side
       with every copy on the other: in a composition that nests itself
       as it runs, the copies would square at every level, and one step
       would outrun every deadline. Each side joins its distinct moves. *)
    let syncing ts =
      List.rev
        (List.fold_left
           (fun acc (l, t) ->
             match l with
             | Event.Vis e
               when sync e
                    && not
                         (List.exists
                            (fun (e', t') ->
                              Proc.equal t t' && Event.equal e e')
                            acc) ->
               (e, t) :: acc
             | Event.Vis _ | Event.Tau | Event.Tick -> acc)
           [] ts)
    in
    let ticks ts =
      List.exists (fun (l, _) -> match l with Event.Tick -> true | _ -> false) ts
    in
    let left = free allowed_left (fun t -> mk t p2) t1 in
    let right = free allowed_right (fun t -> mk p1 t) t2 in
    let offers = syncing t2 in
    let n_offers = List.length offers in
    let synced =
      List.concat_map
        (fun (e1, t1') ->
          spend n_offers;
          List.filter_map
            (fun (e2, t2') ->
              if Event.equal e1 e2 then Some (Event.Vis e1, mk t1' t2')
              else None)
            offers)
        (syncing t1)
    in
    let tick =
      if ticks t1 && ticks t2 then [ Event.Tick, Proc.omega ] else []
    in
    left @ right @ synced @ tick
  in
  let result = trans 0 proc in
  List.sort_uniq
    (fun (l1, t1) (l2, t2) ->
      let r = Event.compare_label l1 l2 in
      if r <> 0 then r else Proc.compare t1 t2)
    result

let transitions defs proc =
  transitions_via (fun _ -> None) (fun _ _ -> ()) ~spend:ignore defs proc

(* Transition memoization. Hash-consing makes the cache key O(1): lookup
   is physical equality on the interned term plus its precomputed hash.
   Caches are always private to their creator — a per-check cache dies
   with the check, so no global table outlives a dropped [Defs.t]. *)
module Proc_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

(* The join is the one place a step multiplies: nested compositions that
   synchronise can make a single term's row exponentially long, so the
   budget is polled once per 4,096 joined pairs, within the step. *)
let make_cached ?(obs = Obs.silent) ?budget defs =
  (* two tables: [memo] holds raw per-subterm transition lists shared by
     every recursive call; [sorted] holds the deduplicated, sorted
     top-level answers handed to callers *)
  let memo = Proc_tbl.create 64 in
  let sorted = Proc_tbl.create 64 in
  let c_hits = Obs.counter obs "semantics.memo_hits" in
  let c_misses = Obs.counter obs "semantics.memo_misses" in
  let spend =
    match budget with
    | None -> ignore
    | Some budget ->
      let work = ref 0 in
      fun n ->
        work := !work + n;
        if !work >= 4096 then begin
          work := 0;
          Budget.poll budget
        end
  in
  fun proc ->
    match Proc_tbl.find_opt sorted proc with
    | Some ts ->
      Obs.incr c_hits;
      ts
    | None ->
      Obs.incr c_misses;
      let ts =
        transitions_via
          (Proc_tbl.find_opt memo)
          (Proc_tbl.replace memo)
          ~spend defs proc
      in
      Proc_tbl.replace sorted proc ts;
      ts

let initials defs proc =
  List.sort_uniq Event.compare_label (List.map fst (transitions defs proc))

let is_stable defs proc =
  not
    (List.exists
       (fun (l, _) -> match l with Event.Tau -> true | _ -> false)
       (transitions defs proc))
