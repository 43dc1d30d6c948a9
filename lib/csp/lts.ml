type t = {
  initial : int;
  states : Proc.t array;
  transitions : (Event.label * int) list array;
}

exception State_limit of int

type progress = {
  interned : int;
  frontier : int;
  reason : Budget.kind;
}

type compile_result =
  | Complete of t
  | Partial of progress

module Proc_tbl = Hashtbl.Make (struct
  type t = Proc.t
  let equal = Proc.equal
  let hash = Proc.hash
end)

(* States are interned in BFS discovery order, successors in row order,
   and dequeued in id order, so consing each row keeps the rows aligned
   with the (reversed) state list. *)
let compile ?(max_states = 1_000_000) defs root =
  let step = Semantics.make_cached defs in
  let index = Proc_tbl.create 64 in
  let states = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let intern term =
    match Proc_tbl.find_opt index term with
    | Some i -> i
    | None ->
      if !count >= max_states then raise (State_limit max_states);
      let i = !count in
      incr count;
      Proc_tbl.replace index term i;
      states := term :: !states;
      Queue.add term queue;
      i
  in
  let initial =
    intern (Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) root)
  in
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    let ts = step (Queue.take queue) in
    rows := List.map (fun (l, target) -> l, intern target) ts :: !rows
  done;
  {
    initial;
    states = Array.of_list (List.rev !states);
    transitions = Array.of_list (List.rev !rows);
  }

let num_states t = Array.length t.states

let num_transitions t =
  Array.fold_left (fun acc ts -> acc + List.length ts) 0 t.transitions

let transitions_of t i = t.transitions.(i)
let state_term t i = t.states.(i)

(* Admitting each row's targets in row order, from the initial state, is
   how [compile] numbers states. *)
let renumber t =
  let n = num_states t in
  let map = Array.make n (-1) and order = Array.make n 0 in
  let count = ref 0 in
  let admit i =
    if map.(i) < 0 then begin
      map.(i) <- !count;
      order.(!count) <- i;
      incr count
    end
  in
  admit t.initial;
  let next = ref 0 in
  while !next < !count do
    List.iter (fun (_, j) -> admit j) t.transitions.(order.(!next));
    incr next
  done;
  let m = !count in
  {
    initial = 0;
    states = Array.init m (fun k -> t.states.(order.(k)));
    transitions =
      Array.init m (fun k ->
          List.map (fun (l, j) -> l, map.(j)) t.transitions.(order.(k)));
  }

let initials t i =
  List.sort_uniq Event.compare_label (List.map fst t.transitions.(i))

(* Both lean on the sorted-row invariant: [Event.compare_label] orders
   Tau before every other label, so the taus are exactly the row's
   prefix. Stopping there matters — these run per closure/stability query
   on rows that can hold thousands of visible transitions. *)
let is_stable t i =
  match t.transitions.(i) with
  | (Event.Tau, _) :: _ -> false
  | _ -> true

let tau_successors t i =
  let rec go acc = function
    | (Event.Tau, j) :: rest -> go (j :: acc) rest
    | _ -> acc
  in
  go [] t.transitions.(i)

module Int_set = Set.Make (Int)

let tau_closure t seeds =
  let rec go visited = function
    | [] -> visited
    | i :: rest ->
      if Int_set.mem i visited then go visited rest
      else go (Int_set.add i visited) (tau_successors t i @ rest)
  in
  Int_set.elements (go Int_set.empty seeds)

let deadlocks t =
  let result = ref [] in
  Array.iteri
    (fun i ts ->
      if ts = [] && not (Proc.equal t.states.(i) Proc.omega) then
        result := i :: !result)
    t.transitions;
  List.rev !result

let path_to t pred =
  let n = num_states t in
  let parent = Array.make n None in  (* (label, predecessor) *)
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(t.initial) <- true;
  Queue.add t.initial queue;
  let rec reconstruct acc i =
    match parent.(i) with
    | None -> acc
    | Some (l, p) -> reconstruct (l :: acc) p
  in
  let rec search () =
    match Queue.take_opt queue with
    | None -> None
    | Some i ->
      if pred i then Some (reconstruct [] i, i)
      else begin
        List.iter
          (fun (l, j) ->
            if not visited.(j) then begin
              visited.(j) <- true;
              parent.(j) <- Some (l, i);
              Queue.add j queue
            end)
          t.transitions.(i);
        search ()
      end
  in
  search ()

let trace_path_to t pred =
  match path_to t pred with
  | None -> None
  | Some (labels, i) ->
    let trace =
      List.filter_map
        (fun l -> match l with Event.Vis e -> Some e | _ -> None)
        labels
    in
    Some (trace, i)

(* Tarjan over the tau edges, iterative. SCC ids follow completion
   order, which is a reverse topological order of the condensation. *)
let tau_sccs t =
  let n = num_states t in
  let tau_succs i =
    List.filter_map
      (fun (l, j) -> match l with Event.Tau -> Some j | _ -> None)
      t.transitions.(i)
  in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let scc = Array.make n (-1) in
  let counter = ref 0 in
  let nscc = ref 0 in
  let visit root =
    let frames = Stack.create () in
    index.(root) <- !counter;
    low.(root) <- !counter;
    incr counter;
    stack := root :: !stack;
    on_stack.(root) <- true;
    Stack.push (root, tau_succs root) frames;
    while not (Stack.is_empty frames) do
      let v, succs = Stack.pop frames in
      match succs with
      | [] ->
        if low.(v) = index.(v) then begin
          let id = !nscc in
          incr nscc;
          let rec popall () =
            match !stack with
            | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              scc.(w) <- id;
              if w <> v then popall ()
            | [] -> ()
          in
          popall ()
        end;
        (match Stack.top_opt frames with
         | Some (parent, _) ->
           if low.(v) < low.(parent) then low.(parent) <- low.(v)
         | None -> ())
      | w :: rest ->
        Stack.push (v, rest) frames;
        if index.(w) < 0 then begin
          index.(w) <- !counter;
          low.(w) <- !counter;
          incr counter;
          stack := w :: !stack;
          on_stack.(w) <- true;
          Stack.push (w, tau_succs w) frames
        end
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w)
    done
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then visit root
  done;
  scc, !nscc

let divergences t =
  let scc, nscc = tau_sccs t in
  let size = Array.make (max 1 nscc) 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc;
  List.filter
    (fun i ->
      size.(scc.(i)) >= 2 || List.exists (Int.equal i) (tau_successors t i))
    (List.init (num_states t) Fun.id)

let to_dot ?(max_label = 40) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph lts {\n  rankdir=LR;\n";
  Array.iteri
    (fun i term ->
      let label = Proc.to_string term in
      let label =
        if String.length label > max_label then
          String.sub label 0 (max_label - 3) ^ "..."
        else label
      in
      let escaped = String.concat "\\\"" (String.split_on_char '\"' label) in
      Buffer.add_string buf
        (Printf.sprintf
           "  s%d [label=\"%d\", tooltip=\"%s\"%s];\n" i i escaped
           (if i = t.initial then ", peripheries=2" else "")))
    t.states;
  Array.iteri
    (fun i ts ->
      List.iter
        (fun (l, j) ->
          match l with
          | Event.Tau ->
            Buffer.add_string buf
              (Printf.sprintf "  s%d -> s%d [label=\"tau\", style=dashed];\n" i j)
          | _ ->
            Buffer.add_string buf
              (Printf.sprintf "  s%d -> s%d [label=\"%s\"];\n" i j
                 (Event.label_to_string l)))
        ts)
    t.transitions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats ppf t =
  Format.fprintf ppf "%d states, %d transitions" (num_states t)
    (num_transitions t)
