type comm_item =
  | Out of Expr.t
  | In of string * Expr.t option

type t = {
  id : int;
  hkey : int;
  node : node;
}

and node =
  | Stop
  | Skip
  | Omega
  | Prefix of string * comm_item list * t
  | Ext of t * t
  | Int of t * t
  | Seq of t * t
  | Par of t * Eventset.t * t
  | APar of t * Eventset.t * Eventset.t * t
  | Inter of t * t
  | Interrupt of t * t
  | Timeout of t * t
  | Hide of t * Eventset.t
  | Rename of t * (string * string) list
  | If of Expr.t * t * t
  | Guard of Expr.t * t
  | Call of string * Expr.t list
  | Ext_over of string * Expr.t * t
  | Int_over of string * Expr.t * t
  | Inter_over of string * Expr.t * t
  | Run of Eventset.t
  | Chaos of Eventset.t

let view p = p.node
let id p = p.id
let equal (p : t) (q : t) = p == q
let hash p = p.hkey

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Shallow equality: child terms by physical identity (they are already
   interned), other payloads structurally. This is all the intern table
   needs — deep equality follows inductively. *)
(* Monomorphic payload equality: these run on every intern-table probe,
   where the polymorphic [=]'s C-level walk over literal-heavy payloads
   is the difference between O(1) and O(term size) per construction. *)
let equal_comm_items =
  List.equal (fun i1 i2 ->
      match i1, i2 with
      | Out e1, Out e2 -> Expr.equal e1 e2
      | In (x1, r1), In (x2, r2) ->
        String.equal x1 x2 && Option.equal Expr.equal r1 r2
      | (Out _ | In _), _ -> false)

let equal_mapping =
  List.equal (fun (a1, b1) (a2, b2) -> String.equal a1 a2 && String.equal b1 b2)

let shallow_equal n1 n2 =
  match n1, n2 with
  | Stop, Stop | Skip, Skip | Omega, Omega -> true
  | Prefix (c1, i1, p1), Prefix (c2, i2, p2) ->
    String.equal c1 c2 && p1 == p2 && equal_comm_items i1 i2
  | Ext (a1, b1), Ext (a2, b2)
  | Int (a1, b1), Int (a2, b2)
  | Seq (a1, b1), Seq (a2, b2)
  | Inter (a1, b1), Inter (a2, b2)
  | Interrupt (a1, b1), Interrupt (a2, b2)
  | Timeout (a1, b1), Timeout (a2, b2) ->
    a1 == a2 && b1 == b2
  | Par (a1, s1, b1), Par (a2, s2, b2) ->
    a1 == a2 && b1 == b2 && Eventset.equal s1 s2
  | APar (a1, sa1, sb1, b1), APar (a2, sa2, sb2, b2) ->
    a1 == a2 && b1 == b2 && Eventset.equal sa1 sa2 && Eventset.equal sb1 sb2
  | Hide (a1, s1), Hide (a2, s2) -> a1 == a2 && Eventset.equal s1 s2
  | Rename (a1, m1), Rename (a2, m2) -> a1 == a2 && equal_mapping m1 m2
  | If (c1, a1, b1), If (c2, a2, b2) ->
    a1 == a2 && b1 == b2 && Expr.equal c1 c2
  | Guard (c1, a1), Guard (c2, a2) -> a1 == a2 && Expr.equal c1 c2
  | Call (f1, args1), Call (f2, args2) ->
    String.equal f1 f2 && List.equal Expr.equal args1 args2
  | Ext_over (x1, s1, a1), Ext_over (x2, s2, a2)
  | Int_over (x1, s1, a1), Int_over (x2, s2, a2)
  | Inter_over (x1, s1, a1), Inter_over (x2, s2, a2) ->
    String.equal x1 x2 && a1 == a2 && Expr.equal s1 s2
  | Run s1, Run s2 | Chaos s1, Chaos s2 -> Eventset.equal s1 s2
  | _, _ -> false

let comb h x = ((h lsl 5) + h + x) land max_int

let hash_node n =
  match n with
  | Stop -> 3
  | Skip -> 5
  | Omega -> 7
  | Prefix (c, items, p) ->
    comb (comb (comb 11 (Hashtbl.hash c)) (Hashtbl.hash items)) p.hkey
  | Ext (a, b) -> comb (comb 13 a.hkey) b.hkey
  | Int (a, b) -> comb (comb 17 a.hkey) b.hkey
  | Seq (a, b) -> comb (comb 19 a.hkey) b.hkey
  | Par (a, s, b) -> comb (comb (comb 23 a.hkey) (Hashtbl.hash s)) b.hkey
  | APar (a, sa, sb, b) ->
    comb
      (comb (comb (comb 29 a.hkey) (Hashtbl.hash sa)) (Hashtbl.hash sb))
      b.hkey
  | Inter (a, b) -> comb (comb 31 a.hkey) b.hkey
  | Interrupt (a, b) -> comb (comb 37 a.hkey) b.hkey
  | Timeout (a, b) -> comb (comb 41 a.hkey) b.hkey
  | Hide (a, s) -> comb (comb 43 a.hkey) (Hashtbl.hash s)
  | Rename (a, m) -> comb (comb 47 a.hkey) (Hashtbl.hash m)
  | If (c, a, b) -> comb (comb (comb 53 (Hashtbl.hash c)) a.hkey) b.hkey
  | Guard (c, a) -> comb (comb 59 (Hashtbl.hash c)) a.hkey
  | Call (f, args) -> comb (comb 61 (Hashtbl.hash f)) (Hashtbl.hash args)
  | Ext_over (x, s, a) ->
    comb (comb (comb 67 (Hashtbl.hash x)) (Hashtbl.hash s)) a.hkey
  | Int_over (x, s, a) ->
    comb (comb (comb 71 (Hashtbl.hash x)) (Hashtbl.hash s)) a.hkey
  | Inter_over (x, s, a) ->
    comb (comb (comb 73 (Hashtbl.hash x)) (Hashtbl.hash s)) a.hkey
  | Run s -> comb 79 (Hashtbl.hash s)
  | Chaos s -> comb 83 (Hashtbl.hash s)

module HC = Weak.Make (struct
  type nonrec t = t

  let equal a b = shallow_equal a.node b.node
  let hash a = a.hkey
end)

(* One global intern table, weak so the GC can reclaim dead terms. Ids are
   handed out only when a candidate is actually added. The table is shared
   by every domain (terms must stay physically unique process-wide for the
   O(1) equality to hold across concurrently checked assertions), so all
   access is serialized by a mutex; per-check transition memo tables keep
   most repeated work off this path. *)
let hc_table = HC.create 4096
let hc_mutex = Mutex.create ()
let next_id = ref 0

let make node =
  let hkey = hash_node node in
  Mutex.lock hc_mutex;
  let cand = { id = !next_id; hkey; node } in
  let res = HC.merge hc_table cand in
  if res == cand then incr next_id;
  Mutex.unlock hc_mutex;
  res

let interned () =
  Mutex.lock hc_mutex;
  let n = HC.count hc_table in
  Mutex.unlock hc_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Deterministic structural order (independent of interning order)     *)
(* ------------------------------------------------------------------ *)

let tag_of = function
  | Stop -> 0
  | Skip -> 1
  | Omega -> 2
  | Prefix _ -> 3
  | Ext _ -> 4
  | Int _ -> 5
  | Seq _ -> 6
  | Par _ -> 7
  | APar _ -> 8
  | Inter _ -> 9
  | Interrupt _ -> 10
  | Timeout _ -> 11
  | Hide _ -> 12
  | Rename _ -> 13
  | If _ -> 14
  | Guard _ -> 15
  | Call _ -> 16
  | Ext_over _ -> 17
  | Int_over _ -> 18
  | Inter_over _ -> 19
  | Run _ -> 20
  | Chaos _ -> 21

let rec compare p q =
  if p == q then 0
  else
    let n1 = p.node and n2 = q.node in
    let c = Int.compare (tag_of n1) (tag_of n2) in
    if c <> 0 then c
    else
      match n1, n2 with
      | Stop, Stop | Skip, Skip | Omega, Omega -> 0
      | Prefix (c1, i1, p1), Prefix (c2, i2, p2) ->
        chain (String.compare c1 c2) (fun () ->
            chain (Stdlib.compare i1 i2) (fun () -> compare p1 p2))
      | Ext (a1, b1), Ext (a2, b2)
      | Int (a1, b1), Int (a2, b2)
      | Seq (a1, b1), Seq (a2, b2)
      | Inter (a1, b1), Inter (a2, b2)
      | Interrupt (a1, b1), Interrupt (a2, b2)
      | Timeout (a1, b1), Timeout (a2, b2) ->
        chain (compare a1 a2) (fun () -> compare b1 b2)
      | Par (a1, s1, b1), Par (a2, s2, b2) ->
        chain (compare a1 a2) (fun () ->
            chain (Stdlib.compare s1 s2) (fun () -> compare b1 b2))
      | APar (a1, sa1, sb1, b1), APar (a2, sa2, sb2, b2) ->
        chain (compare a1 a2) (fun () ->
            chain (Stdlib.compare sa1 sa2) (fun () ->
                chain (Stdlib.compare sb1 sb2) (fun () -> compare b1 b2)))
      | Hide (a1, s1), Hide (a2, s2) ->
        chain (compare a1 a2) (fun () -> Stdlib.compare s1 s2)
      | Rename (a1, m1), Rename (a2, m2) ->
        chain (compare a1 a2) (fun () -> Stdlib.compare m1 m2)
      | If (c1, a1, b1), If (c2, a2, b2) ->
        chain (Expr.compare c1 c2) (fun () ->
            chain (compare a1 a2) (fun () -> compare b1 b2))
      | Guard (c1, a1), Guard (c2, a2) ->
        chain (Expr.compare c1 c2) (fun () -> compare a1 a2)
      | Call (f1, args1), Call (f2, args2) ->
        chain (String.compare f1 f2) (fun () ->
            List.compare Expr.compare args1 args2)
      | Ext_over (x1, s1, a1), Ext_over (x2, s2, a2)
      | Int_over (x1, s1, a1), Int_over (x2, s2, a2)
      | Inter_over (x1, s1, a1), Inter_over (x2, s2, a2) ->
        chain (String.compare x1 x2) (fun () ->
            chain (Expr.compare s1 s2) (fun () -> compare a1 a2))
      | Run s1, Run s2 | Chaos s1, Chaos s2 -> Stdlib.compare s1 s2
      | _, _ ->
        (* tags already distinguished above *)
        invalid_arg "Proc.compare: constructor tags out of sync"

and chain c rest = if c <> 0 then c else rest ()

let structural_equal p q = compare p q = 0

let rec structural_hash p =
  let h =
    match p.node with
    | Stop | Skip | Omega | Run _ | Chaos _ -> 0
    | Prefix (_, _, q) | Hide (q, _) | Rename (q, _) | Guard (_, q)
    | Ext_over (_, _, q) | Int_over (_, _, q) | Inter_over (_, _, q) ->
      structural_hash q
    | Ext (a, b) | Int (a, b) | Seq (a, b) | Inter (a, b)
    | Interrupt (a, b) | Timeout (a, b)
    | Par (a, _, b) | APar (a, _, _, b) | If (_, a, b) ->
      comb (structural_hash a) (structural_hash b)
    | Call _ -> 0
  in
  (* fold in the node's own payload exactly as the interning hash does,
     minus child hkeys (already covered recursively above) *)
  comb (tag_of p.node)
    (comb h
       (match p.node with
        | Prefix (c, items, _) -> comb (Hashtbl.hash c) (Hashtbl.hash items)
        | Par (_, s, _) | Hide (_, s) | Run s | Chaos s -> Hashtbl.hash s
        | APar (_, sa, sb, _) -> comb (Hashtbl.hash sa) (Hashtbl.hash sb)
        | Rename (_, m) -> Hashtbl.hash m
        | If (c, _, _) | Guard (c, _) -> Hashtbl.hash c
        | Call (f, args) -> comb (Hashtbl.hash f) (Hashtbl.hash args)
        | Ext_over (x, s, _) | Int_over (x, s, _) | Inter_over (x, s, _) ->
          comb (Hashtbl.hash x) (Hashtbl.hash s)
        | Stop | Skip | Omega | Ext _ | Int _ | Seq _ | Inter _
        | Interrupt _ | Timeout _ ->
          tag_of p.node))

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let stop = make Stop
let skip = make Skip
let omega = make Omega
let prefix_items (c, items, p) = make (Prefix (c, items, p))
let ext (p, q) = make (Ext (p, q))
let intc (p, q) = make (Int (p, q))
let seq (p, q) = make (Seq (p, q))
let par (p, s, q) = make (Par (p, s, q))
let apar (p, sa, sb, q) = make (APar (p, sa, sb, q))
let inter (p, q) = make (Inter (p, q))
let interrupt (p, q) = make (Interrupt (p, q))
let timeout (p, q) = make (Timeout (p, q))

let hide (p, set) =
  match p.node with
  | Hide (_, set') when Eventset.equal set set' -> p
  | _ -> make (Hide (p, set))

let rename (p, mapping) =
  match p.node with
  | Rename (_, mapping') when mapping = mapping' -> p
  | _ -> make (Rename (p, mapping))

let ite (c, p, q) = make (If (c, p, q))
let guard (c, p) = make (Guard (c, p))
let call (f, args) = make (Call (f, args))
let ext_over (x, s, p) = make (Ext_over (x, s, p))
let int_over (x, s, p) = make (Int_over (x, s, p))
let inter_over (x, s, p) = make (Inter_over (x, s, p))
let run set = make (Run set)
let chaos set = make (Chaos set)

let prefix c args p = prefix_items (c, List.map (fun e -> Out e) args, p)
let send c values p = prefix c (List.map (fun v -> Expr.Lit v) values) p
let recv c xs p = prefix_items (c, List.map (fun x -> In (x, None)) xs, p)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let free_vars proc =
  let add bound x acc = if List.mem x bound then acc else x :: acc in
  let add_expr bound e acc =
    List.fold_left (fun acc x -> add bound x acc) acc (Expr.free_vars e)
  in
  let rec go bound acc p =
    match p.node with
    | Stop | Skip | Omega | Run _ | Chaos _ -> acc
    | Prefix (_, items, p) ->
      let bound', acc =
        List.fold_left
          (fun (bound, acc) item ->
            match item with
            | Out e -> bound, add_expr bound e acc
            | In (x, restr) ->
              let acc =
                match restr with
                | None -> acc
                | Some e -> add_expr bound e acc
              in
              x :: bound, acc)
          (bound, acc) items
      in
      go bound' acc p
    | Ext (p, q) | Int (p, q) | Seq (p, q) | Inter (p, q)
    | Interrupt (p, q) | Timeout (p, q) ->
      go bound (go bound acc p) q
    | Par (p, _, q) | APar (p, _, _, q) -> go bound (go bound acc p) q
    | Hide (p, _) | Rename (p, _) -> go bound acc p
    | If (c, p, q) -> go bound (go bound (add_expr bound c acc) p) q
    | Guard (c, p) -> go bound (add_expr bound c acc) p
    | Call (_, args) ->
      List.fold_left (fun acc e -> add_expr bound e acc) acc args
    | Ext_over (x, s, p) | Int_over (x, s, p) | Inter_over (x, s, p) ->
      go (x :: bound) (add_expr bound s acc) p
  in
  List.sort_uniq String.compare (go [] [] proc)

(* Rebuilds go through the smart constructors, so an unchanged subterm
   re-interns to itself and the physical-identity fast paths below are
   merely an optimization, not a correctness requirement. *)
let subst resolve proc =
  let shadow resolve x y = if String.equal y x then None else resolve y in
  let rec go resolve p =
    match p.node with
    | Stop | Skip | Omega | Run _ | Chaos _ -> p
    | Prefix (c, items, cont) ->
      let resolve', rev_items =
        List.fold_left
          (fun (resolve, items) item ->
            match item with
            | Out e -> resolve, Out (Expr.subst resolve e) :: items
            | In (x, restr) ->
              let restr = Option.map (Expr.subst resolve) restr in
              shadow resolve x, In (x, restr) :: items)
          (resolve, []) items
      in
      let items' = List.rev rev_items in
      let cont' = go resolve' cont in
      if cont' == cont && equal_comm_items items' items then p
      else prefix_items (c, items', cont')
    | Ext (a, b) -> binary p a b resolve ext
    | Int (a, b) -> binary p a b resolve intc
    | Seq (a, b) -> binary p a b resolve seq
    | Interrupt (a, b) -> binary p a b resolve interrupt
    | Timeout (a, b) -> binary p a b resolve timeout
    | Inter (a, b) -> binary p a b resolve inter
    | Par (a, s, b) ->
      let a' = go resolve a and b' = go resolve b in
      if a' == a && b' == b then p else par (a', s, b')
    | APar (a, sa, sb, b) ->
      let a' = go resolve a and b' = go resolve b in
      if a' == a && b' == b then p else apar (a', sa, sb, b')
    | Hide (a, s) ->
      let a' = go resolve a in
      if a' == a then p else hide (a', s)
    | Rename (a, m) ->
      let a' = go resolve a in
      if a' == a then p else rename (a', m)
    | If (c, a, b) ->
      let c' = Expr.subst resolve c in
      let a' = go resolve a and b' = go resolve b in
      if a' == a && b' == b && Expr.equal c' c then p else ite (c', a', b')
    | Guard (c, a) ->
      let c' = Expr.subst resolve c in
      let a' = go resolve a in
      if a' == a && Expr.equal c' c then p else guard (c', a')
    | Call (f, args) ->
      let args' = List.map (Expr.subst resolve) args in
      if List.equal Expr.equal args' args then p else call (f, args')
    | Ext_over (x, s, a) -> over p x s a resolve ext_over
    | Int_over (x, s, a) -> over p x s a resolve int_over
    | Inter_over (x, s, a) -> over p x s a resolve inter_over
  and binary p a b resolve mk =
    let a' = go resolve a and b' = go resolve b in
    if a' == a && b' == b then p else mk (a', b')
  and over p x s a resolve mk =
    let s' = Expr.subst resolve s in
    let a' = go (fun y -> if String.equal y x then None else resolve y) a in
    if a' == a && Expr.equal s' s then p else mk (x, s', a')
  in
  go resolve proc

(* Combine a non-empty branch list into a balanced tree, preserving
   left-to-right branch order. The replicated operators are associative,
   so the tree shape is free — and it is not free downstream: a left
   spine of N branches makes every traversal that rebuilds or memoizes
   per spine node (the operational semantics, the staged compiler)
   quadratic in N. Balancing caps the depth at O(log N). *)
let combine_balanced combine ps =
  let arr = Array.of_list ps in
  let rec go lo hi =
    if hi - lo = 1 then arr.(lo)
    else
      let mid = (lo + hi) / 2 in
      combine (go lo mid) (go mid hi)
  in
  go 0 (Array.length arr)

let ext_all = function
  | [] -> stop
  | ps -> combine_balanced (fun a b -> ext (a, b)) ps

let inter_all = function
  | [] -> skip
  | ps -> combine_balanced (fun a b -> inter (a, b)) ps

let const_fold ?tys fenv proc =
  (* [bound] tracks in-scope binder variables; an expression folds to a
     literal only when none of its free variables are bound binders (after
     substitution, those are the only free variables left). *)
  let foldable bound e =
    not (List.exists (fun x -> List.mem x bound) (Expr.free_vars e))
  in
  let fold_expr bound e =
    match e with
    | Expr.Lit _ -> e
    | _ ->
      if foldable bound e then Expr.Lit (Expr.eval ?tys fenv Expr.empty_env e)
      else e
  in
  let rec go bound p =
    match p.node with
    | Stop | Skip | Omega | Run _ | Chaos _ -> p
    | Prefix (c, items, cont) ->
      let bound', rev_items =
        List.fold_left
          (fun (bound, items) item ->
            match item with
            | Out e -> bound, Out (fold_expr bound e) :: items
            | In (x, restr) ->
              (* restriction sets are set-valued: they are evaluated by the
                 semantics when the prefix fires, never folded to a scalar *)
              x :: bound, In (x, restr) :: items)
          (bound, []) items
      in
      let items' = List.rev rev_items in
      let cont' = go bound' cont in
      if cont' == cont && equal_comm_items items' items then p
      else prefix_items (c, items', cont')
    | Ext (a, b) -> binary p a b bound ext
    | Int (a, b) -> binary p a b bound intc
    | Seq (a, b) -> binary p a b bound seq
    | Interrupt (a, b) -> binary p a b bound interrupt
    | Timeout (a, b) -> binary p a b bound timeout
    | Inter (a, b) -> binary p a b bound inter
    | Par (a, s, b) ->
      let a' = go bound a and b' = go bound b in
      if a' == a && b' == b then p else par (a', s, b')
    | APar (a, sa, sb, b) ->
      let a' = go bound a and b' = go bound b in
      if a' == a && b' == b then p else apar (a', sa, sb, b')
    | Hide (a, s) ->
      let a' = go bound a in
      if a' == a then p else hide (a', s)
    | Rename (a, m) ->
      let a' = go bound a in
      if a' == a then p else rename (a', m)
    | If (c, a, b) ->
      if foldable bound c then
        if Expr.eval_bool ?tys fenv Expr.empty_env c then go bound a
        else go bound b
      else
        let a' = go bound a and b' = go bound b in
        if a' == a && b' == b then p else ite (c, a', b')
    | Guard (c, a) ->
      if foldable bound c then
        if Expr.eval_bool ?tys fenv Expr.empty_env c then go bound a else stop
      else
        let a' = go bound a in
        if a' == a then p else guard (c, a')
    | Call (f, args) ->
      let args' = List.map (fold_expr bound) args in
      if List.equal Expr.equal args' args then p else call (f, args')
    | Ext_over (x, s, a) ->
      expand_over bound x s a ~combine:(fun l r -> ext (l, r)) ~unit_:stop
        ~rebuild:(fun s a -> ext_over (x, s, a))
    | Int_over (x, s, a) ->
      expand_over bound x s a ~combine:(fun l r -> intc (l, r)) ~unit_:stop
        ~rebuild:(fun s a -> int_over (x, s, a))
    | Inter_over (x, s, a) ->
      expand_over bound x s a ~combine:(fun l r -> inter (l, r)) ~unit_:skip
        ~rebuild:(fun s a -> inter_over (x, s, a))
  and binary p a b bound mk =
    let a' = go bound a and b' = go bound b in
    if a' == a && b' == b then p else mk (a', b')
  and expand_over bound x s p ~combine ~unit_ ~rebuild =
    if foldable bound s then begin
      let values = Expr.eval_set ?tys fenv Expr.empty_env s in
      match values with
      | [] -> unit_
      | v0 :: rest ->
        let instance v =
          let resolve y = if String.equal y x then Some v else None in
          go bound (subst resolve p)
        in
        combine_balanced combine (instance v0 :: List.map instance rest)
    end
    else rebuild s (go (x :: bound) p)
  in
  go [] proc

let size proc =
  let rec go acc p =
    match p.node with
    | Stop | Skip | Omega | Run _ | Chaos _ -> acc + 1
    | Prefix (_, _, p) | Hide (p, _) | Rename (p, _) | Guard (_, p)
    | Ext_over (_, _, p) | Int_over (_, _, p) | Inter_over (_, _, p) ->
      go (acc + 1) p
    | Ext (p, q) | Int (p, q) | Seq (p, q) | Inter (p, q)
    | Interrupt (p, q) | Timeout (p, q)
    | Par (p, _, q) | APar (p, _, _, q) | If (_, p, q) ->
      go (go (acc + 1) p) q
    | Call _ -> acc + 1
  in
  go 0 proc

let rec pp ppf p =
  match p.node with
  | Stop -> Format.pp_print_string ppf "STOP"
  | Skip -> Format.pp_print_string ppf "SKIP"
  | Omega -> Format.pp_print_string ppf "OMEGA"
  | Prefix (c, items, p) ->
    Format.pp_print_string ppf c;
    List.iter
      (fun item ->
        match item with
        | Out e -> Format.fprintf ppf "!%a" Expr.pp e
        | In (x, None) -> Format.fprintf ppf "?%s" x
        | In (x, Some s) -> Format.fprintf ppf "?%s:%a" x Expr.pp s)
      items;
    Format.fprintf ppf " -> %a" pp_atom p
  | Ext (p, q) -> Format.fprintf ppf "%a [] %a" pp_atom p pp_atom q
  | Int (p, q) -> Format.fprintf ppf "%a |~| %a" pp_atom p pp_atom q
  | Seq (p, q) -> Format.fprintf ppf "%a; %a" pp_atom p pp_atom q
  | Par (p, a, q) ->
    Format.fprintf ppf "%a [|%a|] %a" pp_atom p Eventset.pp a pp_atom q
  | APar (p, a, b, q) ->
    Format.fprintf ppf "%a [%a||%a] %a" pp_atom p Eventset.pp a Eventset.pp b
      pp_atom q
  | Inter (p, q) -> Format.fprintf ppf "%a ||| %a" pp_atom p pp_atom q
  | Interrupt (p, q) -> Format.fprintf ppf "%a /\\ %a" pp_atom p pp_atom q
  | Timeout (p, q) -> Format.fprintf ppf "%a [> %a" pp_atom p pp_atom q
  | Hide (p, a) -> Format.fprintf ppf "%a \\ %a" pp_atom p Eventset.pp a
  | Rename (p, m) ->
    Format.fprintf ppf "%a[[%a]]" pp_atom p
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (a, b) -> Format.fprintf ppf "%s <- %s" a b))
      m
  | If (c, p, q) ->
    Format.fprintf ppf "if %a then %a else %a" Expr.pp c pp_atom p pp_atom q
  | Guard (c, p) -> Format.fprintf ppf "%a & %a" Expr.pp c pp_atom p
  | Call (f, []) -> Format.pp_print_string ppf f
  | Call (f, args) -> Format.fprintf ppf "%s(%a)" f Expr.pp_list args
  | Ext_over (x, s, p) ->
    Format.fprintf ppf "[] %s : %a @@ %a" x Expr.pp s pp_atom p
  | Int_over (x, s, p) ->
    Format.fprintf ppf "|~| %s : %a @@ %a" x Expr.pp s pp_atom p
  | Inter_over (x, s, p) ->
    Format.fprintf ppf "||| %s : %a @@ %a" x Expr.pp s pp_atom p
  | Run a -> Format.fprintf ppf "RUN(%a)" Eventset.pp a
  | Chaos a -> Format.fprintf ppf "CHAOS(%a)" Eventset.pp a

and pp_atom ppf p =
  match p.node with
  | Stop | Skip | Omega | Call _ | Run _ | Chaos _ -> pp ppf p
  | _ -> Format.fprintf ppf "(%a)" pp p

let to_string p = Format.asprintf "%a" pp p
