type t =
  | Empty
  | Chans of string list
  | Prefixed of string * Value.t list
      (* {| c.v1...vk |}: every event on c whose first k args are v1..vk *)
  | Events of Event.t list
  | Union of t * t
  | Diff of t * t

let empty = Empty
let chan c = Chans [ c ]
let chans cs = match cs with [] -> Empty | _ -> Chans (List.sort_uniq String.compare cs)

let prefixed chan args = if args = [] then Chans [ chan ] else Prefixed (chan, args)
let events es =
  match es with [] -> Empty | _ -> Events (List.sort_uniq Event.compare es)

let union s1 s2 =
  match s1, s2 with
  | Empty, s | s, Empty -> s
  | Chans c1, Chans c2 -> Chans (List.sort_uniq String.compare (c1 @ c2))
  | Events e1, Events e2 -> Events (List.sort_uniq Event.compare (e1 @ e2))
  | _ -> Union (s1, s2)

let union_all sets = List.fold_left union Empty sets

let diff s1 s2 =
  match s1, s2 with
  | Empty, _ -> Empty
  | s, Empty -> s
  | _ -> Diff (s1, s2)

let rec values_prefix prefix args =
  match prefix, args with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, a :: rest -> Value.equal p a && values_prefix ps rest

let rec mem set e =
  match set with
  | Empty -> false
  | Chans cs -> List.exists (String.equal e.Event.chan) cs
  | Prefixed (c, prefix) ->
    String.equal e.Event.chan c && values_prefix prefix e.Event.args
  | Events es -> List.exists (Event.equal e) es
  | Union (s1, s2) -> mem s1 e || mem s2 e
  | Diff (s1, s2) -> mem s1 e && not (mem s2 e)

let rec by_channel = function
  | Empty | Chans _ -> true
  | Prefixed _ | Events _ -> false
  | Union (s1, s2) | Diff (s1, s2) -> by_channel s1 && by_channel s2

let rec is_empty_syntactically = function
  | Empty -> true
  | Chans cs -> cs = []
  | Prefixed _ -> false
  | Events es -> es = []
  | Union (s1, s2) -> is_empty_syntactically s1 && is_empty_syntactically s2
  | Diff (s1, _) -> is_empty_syntactically s1

let channels_mentioned set =
  let rec go acc = function
    | Empty -> acc
    | Chans cs -> cs @ acc
    | Prefixed (c, _) -> c :: acc
    | Events es -> List.map (fun e -> e.Event.chan) es @ acc
    | Union (s1, s2) | Diff (s1, s2) -> go (go acc s1) s2
  in
  List.sort_uniq String.compare (go [] set)

let enumerate ~chan_events set =
  let rec go = function
    | Empty -> []
    | Chans cs -> List.concat_map chan_events cs
    | Prefixed (c, prefix) ->
      List.filter
        (fun e -> values_prefix prefix e.Event.args)
        (chan_events c)
    | Events es -> es
    | Union (s1, s2) -> go s1 @ go s2
    | Diff (s1, s2) ->
      let excluded = go s2 in
      List.filter (fun e -> not (List.exists (Event.equal e) excluded)) (go s1)
  in
  List.sort_uniq Event.compare (go set)

(* Syntactic equality (two denotationally equal sets built differently
   compare unequal — same contract as the old polymorphic compare).
   Monomorphic because process-term interning probes it on every [Par],
   [Hide] and [Run] construction. *)
let rec equal s1 s2 =
  s1 == s2
  ||
  match s1, s2 with
  | Empty, Empty -> true
  | Chans c1, Chans c2 -> List.equal String.equal c1 c2
  | Prefixed (c1, a1), Prefixed (c2, a2) ->
    String.equal c1 c2 && Value.equal_list a1 a2
  | Events e1, Events e2 -> List.equal Event.equal e1 e2
  | Union (a1, b1), Union (a2, b2) | Diff (a1, b1), Diff (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | (Empty | Chans _ | Prefixed _ | Events _ | Union _ | Diff _), _ -> false

let rec pp ppf = function
  | Empty -> Format.pp_print_string ppf "{}"
  | Prefixed (c, prefix) ->
    Format.fprintf ppf "{|%s" c;
    List.iter (fun v -> Format.fprintf ppf ".%a" Value.pp_atom v) prefix;
    Format.fprintf ppf "|}"
  | Chans cs ->
    Format.fprintf ppf "{|%a|}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Format.pp_print_string)
      cs
  | Events es ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Event.pp)
      es
  | Union (s1, s2) -> Format.fprintf ppf "union(%a, %a)" pp s1 pp s2
  | Diff (s1, s2) -> Format.fprintf ppf "diff(%a, %a)" pp s1 pp s2

let to_string s = Format.asprintf "%a" pp s
