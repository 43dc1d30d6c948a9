(* Specification normalisation as it stood before it became lazy: the
   eager subset construction over a fully compiled [Lts.t], and the
   dead pass's full scan for spec-free labels, kept verbatim as a
   test-only reference. The oracle properties require the on-the-fly
   normal form, fully forced, to be isomorphic to this one, and the
   early-exit label walk to agree with the full scan. *)

open Csp

type node = {
  members : int list;  (* sorted, tau-closed *)
  mutable edges : (Event.label * int) list;
  mutable acceptances : Event.label list list;
  mutable divergent : bool;
}

type t = {
  nodes : node array;
  initial : int;
}

module Members_tbl = Hashtbl.Make (struct
  type t = int list
  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end)

(* The subset construction below leans on the Lts invariant that
   transition rows are sorted by (label, target): merging sorted rows and
   deduplicating adjacent labels replaces map building and re-sorting —
   with their O(n log n) deep label comparisons per node — by single
   linear passes. *)

(* Merge two label-sorted rows, keeping duplicates. *)
let rec merge_rows r1 r2 =
  match r1, r2 with
  | [], r | r, [] -> r
  | ((l1, _) as e1) :: t1, ((l2, _) as e2) :: t2 ->
    if Event.compare_label l1 l2 <= 0 then e1 :: merge_rows t1 r2
    else e2 :: merge_rows r1 t2

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

let normalise ?(obs = Obs.silent) (lts : Lts.t) =
  Obs.span obs "normalise" (fun () ->
  let diverging = Lts.divergences lts in
  let index = Members_tbl.create 256 in
  let nodes = ref [] in  (* reverse order *)
  let count = ref 0 in
  let queue = Queue.create () in
  let intern members =
    match Members_tbl.find_opt index members with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      let node = { members; edges = []; acceptances = []; divergent = false } in
      Members_tbl.replace index members i;
      nodes := node :: !nodes;
      Queue.add (i, node) queue;
      i
  in
  let initial = intern (Lts.tau_closure lts [ lts.Lts.initial ]) in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some (_, node) ->
      (* Group non-tau successors of all members by label: merge the
         members' sorted rows, then collect runs of equal labels. Taus
         sort first and are dropped up front; the grouped output stays in
         ascending label order, so the edge list needs no re-sort. *)
      let merged =
        List.fold_left
          (fun acc m -> merge_rows acc (Lts.transitions_of lts m))
          [] node.members
      in
      let rec group = function
        | [] -> []
        | (Event.Tau, _) :: rest -> group rest
        | (l, j) :: rest ->
          let rec take acc = function
            | (l', j') :: rest' when Event.equal_label l' l ->
              take (j' :: acc) rest'
            | rest' -> acc, rest'
          in
          let targets, rest' = take [ j ] rest in
          (l, targets) :: group rest'
      in
      node.edges <-
        List.map
          (fun (l, targets) -> l, intern (Lts.tau_closure lts targets))
          (group merged);
      let stable_inits =
        List.filter_map
          (fun m ->
            if Lts.is_stable lts m then
              Some (uniq_labels_of_sorted (Lts.transitions_of lts m))
            else None)
          node.members
      in
      node.acceptances <- minimal_acceptances stable_inits;
      node.divergent <-
        List.exists (fun m -> List.mem m diverging) node.members;
      drain ()
  in
  drain ();
  Obs.add (Obs.counter obs "normalise.nodes") !count;
  { nodes = Array.of_list (List.rev !nodes); initial })

let initial t = t.initial
let num_nodes t = Array.length t.nodes
let members t i = t.nodes.(i).members
let afters t i = t.nodes.(i).edges

let after t i label =
  List.find_map
    (fun (l, j) -> if Event.equal_label l label then Some j else None)
    t.nodes.(i).edges

let acceptances t i = t.nodes.(i).acceptances

let divergent t i = t.nodes.(i).divergent

let can_terminate t i =
  List.exists
    (fun (l, _) -> match l with Event.Tick -> true | _ -> false)
    t.nodes.(i).edges

(* The labels the specification is insensitive to: visible labels with a
   self-loop at every normal-form node. Such a label can never move the
   spec, cause a violation, or mask one. *)
let spec_free_labels norm =
  let n = num_nodes norm in
  let counts = Event.Label_tbl.create 32 in
  for node = 0 to n - 1 do
    List.iter
      (fun (l, j) ->
        match l with
        | Event.Vis _ when j = node ->
          Event.Label_tbl.replace counts l
            (1 + Option.value (Event.Label_tbl.find_opt counts l) ~default:0)
        | _ -> ())
      (afters norm node)
  done;
  let free = Event.Label_tbl.create 32 in
  Event.Label_tbl.iter
    (fun l c -> if c = n then Event.Label_tbl.replace free l ())
    counts;
  free
