(* Streaming trace containment over the specification's normal form.

   A trace checker consults the normal form once per logged event, and
   streams may run on concurrent domains. [compile] therefore forces the
   whole normal form and freezes it into per-node hash tables keyed by
   label, so a step is one lock-free hashtable probe regardless of
   branching factor. *)

module Label_tbl = Event.Label_tbl

type t = {
  edges : int Label_tbl.t array;  (* per node: label -> successor *)
  expected : Event.label list array;  (* per node: sorted edge labels *)
  terminal : bool array;  (* per node: has a Tick edge *)
  chans : (string, unit) Hashtbl.t;  (* observable channels *)
  initial : int;
}

let num_nodes t = Array.length t.edges

let alphabet t =
  List.sort String.compare
    (Hashtbl.fold (fun c () acc -> c :: acc) t.chans [])

(* The state budget a forced normal form ran out of. Forcing explores
   every state, as the eager compiler did, so the count is the budget. *)
let budget_error max_states =
  Error
    (Printf.sprintf
       "specification graph exceeded its state budget (%d states explored)"
       max_states)

let of_norm ?alphabet:alpha norm =
  let n = Normalise.num_nodes (Normalise.form norm) in
  let edges = Array.init n (fun _ -> Label_tbl.create 4) in
  let expected = Array.make n [] in
  let terminal = Array.make n false in
  let chans = Hashtbl.create 16 in
  let derive_alphabet = alpha = None in
  (match alpha with
   | Some cs -> List.iter (fun c -> Hashtbl.replace chans c ()) cs
   | None -> ());
  for i = 0 to n - 1 do
    let afters = Normalise.afters norm i in
    expected.(i) <- List.map fst afters;
    terminal.(i) <- Normalise.can_terminate norm i;
    List.iter
      (fun (label, j) ->
        Label_tbl.replace edges.(i) label j;
        match label with
        | Event.Vis e when derive_alphabet ->
          Hashtbl.replace chans e.Event.chan ()
        | _ -> ())
      afters
  done;
  { edges; expected; terminal; chans; initial = Normalise.initial norm }

(* Through [Refine.cached_spec]: a cache hit resumes from whatever
   earlier checks materialised, and what forcing adds is shared with
   them (and spilled to disk when the cache persists). Forcing polls the
   config's deadline and cancellation token, as a check's normal form
   does, so a specification whose tau-closure never ends stops. *)
let compile ?(config = Check_config.default) ?alphabet defs spec =
  let max_states = config.Check_config.max_states in
  let stop_at =
    Option.map (fun s -> Obs.now () +. s) config.Check_config.deadline
  in
  let step = Semantics.make_cached ~obs:config.Check_config.obs defs in
  match
    let norm, key =
      Refine.cached_spec ~config ?stop_at ?cancel:config.Check_config.cancel
        ~step defs spec
    in
    Normalise.force norm;
    (norm, key)
  with
  | exception Normalise.State_limit _ -> budget_error max_states
  | exception Normalise.Stopped reason ->
    Error
      ("specification compile stopped: "
      ^
      match reason with
      | `Deadline -> "deadline exhausted"
      | `Interrupt -> "interrupted")
  | norm, key ->
    (match config.Check_config.cache, key with
     | Some cache, Some key -> Cache.spill cache key
     | _ -> ());
    Ok (of_norm ?alphabet norm)

type verdict =
  | Accepted
  | Rejected of {
      position : int;
      offending : Event.label;
      expected : Event.label list;
    }

type cursor = {
  node : int;  (* -1 once the spec has terminated (after Tick) *)
  position : int;
  skipped : int;
  rejected : verdict option;  (* latched [Rejected _] *)
}

let start t = { node = t.initial; position = 0; skipped = 0; rejected = None }
let verdict c = match c.rejected with Some v -> v | None -> Accepted
let consumed c = c.position
let skipped c = c.skipped

let reject c label expected =
  {
    c with
    position = c.position + 1;
    rejected = Some (Rejected { position = c.position; offending = label; expected });
  }

let step t c label =
  if c.rejected <> None then c
  else
    match label with
    | Event.Tau -> c
    | Event.Tick ->
      if c.node >= 0 && t.terminal.(c.node) then
        { c with node = -1; position = c.position + 1 }
      else
        reject c label (if c.node >= 0 then t.expected.(c.node) else [])
    | Event.Vis e ->
      if not (Hashtbl.mem t.chans e.Event.chan) then
        { c with position = c.position + 1; skipped = c.skipped + 1 }
      else if c.node < 0 then reject c label []
      else (
        match Label_tbl.find_opt t.edges.(c.node) label with
        | Some next -> { c with node = next; position = c.position + 1 }
        | None -> reject c label t.expected.(c.node))

let check_trace t labels =
  verdict (List.fold_left (step t) (start t) labels)
