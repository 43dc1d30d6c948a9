type t = {
  chan : string;
  args : Value.t list;
}

type label =
  | Tau
  | Tick
  | Vis of t

let event chan args = { chan; args }

let equal e1 e2 =
  String.equal e1.chan e2.chan && Value.equal_list e1.args e2.args

let compare e1 e2 =
  let r = String.compare e1.chan e2.chan in
  if r <> 0 then r else Value.compare_list e1.args e2.args

let hash e =
  List.fold_left (fun acc v -> (acc * 65599) + Value.hash v)
    (Hashtbl.hash e.chan) e.args

let pp ppf e =
  Format.pp_print_string ppf e.chan;
  List.iter (fun v -> Format.fprintf ppf ".%a" Value.pp_atom v) e.args

let to_string e = Format.asprintf "%a" pp e

let equal_label l1 l2 =
  match l1, l2 with
  | Tau, Tau -> true
  | Tick, Tick -> true
  | Vis e1, Vis e2 -> equal e1 e2
  | (Tau | Tick | Vis _), _ -> false

let compare_label l1 l2 =
  match l1, l2 with
  | Tau, Tau -> 0
  | Tau, _ -> -1
  | _, Tau -> 1
  | Tick, Tick -> 0
  | Tick, _ -> -1
  | _, Tick -> 1
  | Vis e1, Vis e2 -> compare e1 e2

let pp_label ppf = function
  | Tau -> Format.pp_print_string ppf "tau"
  | Tick -> Format.pp_print_string ppf "tick"
  | Vis e -> pp ppf e

let label_to_string l = Format.asprintf "%a" pp_label l

(* Label-keyed tables: reduction passes, the normal form's per-node
   edges and trace-check cursors all look labels up by content. *)
module Label_tbl = Hashtbl.Make (struct
  type t = label

  let equal = equal_label

  let hash = function
    | Tau -> 0x6b1
    | Tick -> 0x3a7
    | Vis e -> hash e
end)

let is_visible = function
  | Vis _ -> true
  | Tau | Tick -> false
