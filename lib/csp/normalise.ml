(* On-the-fly specification normalisation: determinisation by tau-closure
   subset construction, built only as far as the checks ask.

   A normal form is pure data: the specification terms interned so far,
   their transition rows, and the nodes built so far. A node is a
   tau-closed set of member states; it records its outgoing labels with
   the members' successor terms, and resolves a label to its target node
   (the tau-closure of those successors) only when a check follows that
   label. A search that reaches k nodes builds about k nodes, however
   large the whole normal form is: the on-the-fly subset construction of
   antichain-based trace inclusion (De Wulf, Doyen, Henzinger, Raskin,
   CAV 2006), where FDR normalises eagerly.

   The data holds no closure and no [Defs.t], so a normal form can be
   cached, shared by concurrent checks, and spilled to disk. It grows
   through a [session], which lends it one check's transition function.
   One mutex per normal form guards every access. *)

module Proc_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

(* Member sets are sorted state-id arrays. *)
module Members_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b

  let hash a =
    Array.fold_left (fun h i -> (h * 65599) + i) (Array.length a) a
    land max_int
end)

module Label_tbl = Event.Label_tbl

type row = (Event.label * Proc.t) list

type node = {
  members : int array;  (* sorted state ids, tau-closed *)
  labels : Event.label array;  (* visible labels and tick, ascending *)
  slots : int Label_tbl.t option;
      (* label -> index into [labels]; [None] for a node with few labels,
         which a scan finds faster than a hash *)
  seeds : Proc.t list array;
      (* per label: the members' successors, dropped once resolved *)
  targets : int array;  (* per label: target node, -1 until resolved *)
  mutable acceptances : Event.label list list option;
  mutable divergent : bool option;
}

type t = {
  mu : Mutex.t;
  ids : int Proc_tbl.t;
  mutable terms : Proc.t array;  (* state id -> term *)
  mutable rows : row array;  (* state id -> its transitions, label-sorted *)
  mutable num_states : int;
  index : int Members_tbl.t;  (* member set -> node id *)
  mutable nodes : node array;
  mutable num_nodes : int;
}

type session = {
  form : t;
  step : Proc.t -> row;
  max_states : int;
  budget : Budget.t;
  mutable work : int;  (* row edges stepped since the last poll *)
  obs : Obs.t;
  c_nodes : Obs.counter;
}

let filler_node =
  {
    members = [||];
    labels = [||];
    slots = None;
    seeds = [||];
    targets = [||];
    acceptances = None;
    divergent = None;
  }

(* Tables start small: a daemon keeps one normal form per cached
   specification, most of them a handful of nodes. *)
let empty () =
  {
    mu = Mutex.create ();
    ids = Proc_tbl.create 8;
    terms = Array.make 8 Proc.stop;
    rows = Array.make 8 [];
    num_states = 0;
    index = Members_tbl.create 8;
    nodes = Array.make 8 filler_node;
    num_nodes = 0;
  }

let grow a used filler =
  if used < Array.length a then a
  else begin
    let bigger = Array.make (2 * Array.length a) filler in
    Array.blit a 0 bigger 0 used;
    bigger
  end

let locked t f = Mutex.protect t.mu f

(* ------------------------------------------------------------------ *)
(* Materialisation (callers hold the lock)                             *)
(* ------------------------------------------------------------------ *)

(* Admit a term as a state. Every state is a member of some node, and
   closing a node needs its members' rows, so a state is stepped exactly
   once, when it is admitted. Before a step, the check's budget is polled
   once per 256 edges of the rows stepped since the last poll: counting
   states instead, a tau-closure whose terms and rows grow as it goes
   took seconds to notice a deadline. *)
let state s term =
  let t = s.form in
  match Proc_tbl.find_opt t.ids term with
  | Some i -> i
  | None ->
    if s.work >= 256 then begin
      s.work <- 0;
      Budget.poll s.budget
    end;
    let row = s.step term in
    s.work <- s.work + List.length row + 1;
    let i = t.num_states in
    t.terms <- grow t.terms i Proc.stop;
    t.rows <- grow t.rows i [];
    t.terms.(i) <- term;
    t.rows.(i) <- row;
    t.num_states <- i + 1;
    Proc_tbl.replace t.ids term i;
    i

(* Rows are sorted by label and [Event.compare_label] orders Tau first,
   so a row's taus are its prefix. *)
let rec tau_successors acc = function
  | (Event.Tau, q) :: rest -> tau_successors (q :: acc) rest
  | _ -> acc

let has_tau = function (Event.Tau, _) :: _ -> true | _ -> false

(* The tau-closure of a set of terms, as a sorted member set. A closure
   larger than the state budget runs out of [States]. *)
let closure s seeds =
  match seeds with
  | [ term ] when not (has_tau s.form.rows.(state s term)) ->
    (* the common case, one successor and no taus: no table *)
    [| state s term |]
  | _ ->
    let seen = Hashtbl.create 8 in
    let rec visit = function
      | [] -> ()
      | term :: rest ->
        let i = state s term in
        if Hashtbl.mem seen i then visit rest
        else begin
          Hashtbl.replace seen i ();
          if Hashtbl.length seen > s.max_states then
            raise (Budget.Exhausted States);
          visit (tau_successors rest s.form.rows.(i))
        end
    in
    visit seeds;
    let members = Array.of_seq (Hashtbl.to_seq_keys seen) in
    Array.sort Int.compare members;
    members

(* Merge two label-sorted rows, keeping duplicates. *)
let rec merge_rows r1 r2 =
  match r1, r2 with
  | [], r | r, [] -> r
  | ((l1, _) as e1) :: t1, ((l2, _) as e2) :: t2 ->
    if Event.compare_label l1 l2 <= 0 then e1 :: merge_rows t1 r2
    else e2 :: merge_rows r1 t2

(* Group a merged row's visible and tick successors by label, in
   ascending label order; taus stay inside the node. *)
let rec group = function
  | [] -> []
  | (Event.Tau, _) :: rest -> group rest
  | (l, q) :: rest ->
    let rec take acc = function
      | (l', q') :: rest' when Event.equal_label l' l -> take (q' :: acc) rest'
      | rest' -> acc, rest'
    in
    let seeds, rest' = take [ q ] rest in
    (l, seeds) :: group rest'

(* Nodes with at most this many labels look a label up by scanning. *)
let scan_limit = 8

let slot node label =
  match node.slots with
  | Some tbl -> Label_tbl.find_opt tbl label
  | None ->
    let rec scan k =
      if k >= Array.length node.labels then None
      else if Event.equal_label node.labels.(k) label then Some k
      else scan (k + 1)
    in
    scan 0

let build_node t members =
  let merged =
    Array.fold_left (fun acc m -> merge_rows acc t.rows.(m)) [] members
  in
  let groups = Array.of_list (group merged) in
  let slots =
    if Array.length groups <= scan_limit then None
    else begin
      let tbl = Label_tbl.create (Array.length groups) in
      Array.iteri (fun k (l, _) -> Label_tbl.replace tbl l k) groups;
      Some tbl
    end
  in
  {
    members;
    labels = Array.map fst groups;
    slots;
    seeds = Array.map snd groups;
    targets = Array.make (Array.length groups) (-1);
    acceptances = None;
    divergent = None;
  }

let add_node t members node =
  let j = t.num_nodes in
  t.nodes <- grow t.nodes j filler_node;
  t.nodes.(j) <- node;
  t.num_nodes <- j + 1;
  Members_tbl.replace t.index members j;
  j

let node_of_members s members =
  let t = s.form in
  match Members_tbl.find_opt t.index members with
  | Some j -> j
  | None ->
    Obs.incr s.c_nodes;
    add_node t members (build_node t members)

(* Follow slot [k] of a node: close its seeds the first time. *)
let resolve s node k =
  let j = node.targets.(k) in
  if j >= 0 then j
  else begin
    let j = node_of_members s (closure s node.seeds.(k)) in
    node.targets.(k) <- j;
    node.seeds.(k) <- [];
    j
  end

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let session ?(obs = Obs.silent) ?(max_states = 1_000_000)
    ?(budget = Budget.create ()) ~step form =
  { form; step; max_states; budget; work = 0; obs;
    c_nodes = Obs.counter obs "normalise.nodes" }

let create ?obs ?max_states ?budget ~step root =
  let s = session ?obs ?max_states ?budget ~step (empty ()) in
  Obs.span s.obs "normalise" (fun () ->
      locked s.form (fun () ->
          ignore (node_of_members s (closure s [ root ]))));
  s

let form s = s.form
let max_states s = s.max_states
let num_nodes t = locked t (fun () -> t.num_nodes)
(* Unlocked: the count only grows, so a reader sees a value some lock
   holder wrote; it is for accounting, which tolerates a lag. *)
let num_states t = t.num_states
let initial _ = 0

let force s =
  Obs.span s.obs "normalise" (fun () ->
      let t = s.form in
      locked t (fun () ->
          let i = ref 0 in
          while !i < t.num_nodes do
            let node = t.nodes.(!i) in
            Array.iteri (fun k _ -> ignore (resolve s node k)) node.labels;
            if t.num_states > s.max_states then
              raise (Budget.Exhausted States);
            incr i
          done))

let of_term ?obs ?max_states defs term =
  let s =
    create ?obs ?max_states
      ~step:(Semantics.make_cached ?obs defs)
      (Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) term)
  in
  force s;
  s

(* ------------------------------------------------------------------ *)
(* Node queries                                                        *)
(* ------------------------------------------------------------------ *)

let with_node s i f =
  let t = s.form in
  locked t (fun () -> f t t.nodes.(i))

let members s i =
  with_node s i (fun t node ->
      Array.to_list (Array.map (fun m -> t.terms.(m)) node.members))

let labels s i = with_node s i (fun _ node -> Array.to_list node.labels)

let after s i label =
  with_node s i (fun _ node ->
      match slot node label with
      | Some k -> Some (resolve s node k)
      | None -> None)

let afters s i =
  with_node s i (fun _ node ->
      Array.iteri (fun k _ -> ignore (resolve s node k)) node.labels;
      let edges = ref [] in
      for k = Array.length node.labels - 1 downto 0 do
        edges := (node.labels.(k), node.targets.(k)) :: !edges
      done;
      !edges)

(* An unresolved label can only loop on its own node when every seed is
   already a member (the member set is tau-closed, so the target then
   lies inside it); only those candidates are resolved. *)
let self_loops s i =
  with_node s i (fun t node ->
      let is_member q =
        match Proc_tbl.find_opt t.ids q with
        | Some m -> Array.exists (Int.equal m) node.members
        | None -> false
      in
      let loops = ref [] in
      Array.iteri
        (fun k l ->
          if List.for_all is_member node.seeds.(k) && resolve s node k = i
          then loops := l :: !loops)
        node.labels;
      List.rev !loops)

let can_terminate s i =
  with_node s i (fun _ node ->
      Array.length node.labels > 0
      && match node.labels.(0) with Event.Tick -> true | _ -> false)

(* Distinct labels of a sorted row. *)
let uniq_labels_of_sorted row =
  let rec go = function
    | [] -> []
    | [ (l, _) ] -> [ l ]
    | (l1, _) :: ((l2, _) :: _ as rest) ->
      if Event.equal_label l1 l2 then go rest else l1 :: go rest
  in
  go row

let compare_label_list = List.compare Event.compare_label

(* [a] ⊆ [b] for sorted lists, by parallel descent. *)
let rec subset_sorted a b =
  match a, b with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
    let c = Event.compare_label x y in
    if c = 0 then subset_sorted xs ys
    else if c > 0 then subset_sorted a ys
    else false

(* Keep only minimal sets under inclusion. *)
let minimal_acceptances sets =
  let sets = List.sort_uniq compare_label_list sets in
  List.filter
    (fun a ->
      not
        (List.exists
           (fun b -> compare_label_list a b <> 0 && subset_sorted b a)
           sets))
    sets

let acceptances s i =
  with_node s i (fun t node ->
      match node.acceptances with
      | Some accs -> accs
      | None ->
        let stable_inits =
          Array.fold_left
            (fun acc m ->
              let row = t.rows.(m) in
              if has_tau row then acc else uniq_labels_of_sorted row :: acc)
            [] node.members
        in
        let accs = minimal_acceptances stable_inits in
        node.acceptances <- Some accs;
        accs)

(* Some member lies on a tau cycle. The member set is tau-closed, so any
   such cycle lies inside it: a depth-first search over the members' tau
   edges finds it. *)
let divergent s i =
  with_node s i (fun t node ->
      match node.divergent with
      | Some d -> d
      | None ->
        let colour = Hashtbl.create 8 in  (* state -> on the DFS stack? *)
        let rec on_cycle m =
          match Hashtbl.find_opt colour m with
          | Some on_stack -> on_stack
          | None ->
            Hashtbl.replace colour m true;
            let found =
              List.exists
                (fun q -> on_cycle (Proc_tbl.find t.ids q))
                (tau_successors [] t.rows.(m))
            in
            Hashtbl.replace colour m false;
            found
        in
        let d =
          Array.exists (fun m -> has_tau t.rows.(m)) node.members
          && Array.exists on_cycle node.members
        in
        node.divergent <- Some d;
        d)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_terms : Proc.t array;
  s_rows : row array;
  s_nodes : (int array * int array) array;  (* members, resolved targets *)
}

let export t =
  locked t (fun () ->
      {
        s_terms = Array.sub t.terms 0 t.num_states;
        s_rows = Array.sub t.rows 0 t.num_states;
        s_nodes =
          Array.init t.num_nodes (fun j ->
              let node = t.nodes.(j) in
              node.members, Array.copy node.targets);
      })

let import ~term snap =
  let bad () = failwith "Normalise.import: inconsistent snapshot" in
  let t = empty () in
  let n = Array.length snap.s_terms in
  if Array.length snap.s_rows <> n then bad ();
  Array.iteri
    (fun i p ->
      let p = term p in
      t.terms <- grow t.terms i Proc.stop;
      t.rows <- grow t.rows i [];
      t.terms.(i) <- p;
      t.rows.(i) <- List.map (fun (l, q) -> l, term q) snap.s_rows.(i);
      Proc_tbl.replace t.ids p i)
    snap.s_terms;
  t.num_states <- n;
  let num_nodes = Array.length snap.s_nodes in
  Array.iter
    (fun (members, targets) ->
      if Array.exists (fun m -> m < 0 || m >= n) members then bad ();
      let node = build_node t members in
      if Array.length targets <> Array.length node.targets then bad ();
      Array.iteri
        (fun k j ->
          if j < -1 || j >= num_nodes then bad ();
          node.targets.(k) <- j;
          if j >= 0 then node.seeds.(k) <- [])
        targets;
      ignore (add_node t members node))
    snap.s_nodes;
  t
