(* Streaming trace containment over the specification's normal form.

   [Normalise.after] is a linear scan of the node's edge list — fine for
   the product search, which consults it once per explored pair, but a
   trace checker consults it once per logged event. [compile] therefore
   freezes the normal form into per-node hash tables keyed by label, so
   a step is one hashtable probe regardless of branching factor. *)

module Label_tbl = Hashtbl.Make (struct
  type t = Event.label

  let equal = Event.equal_label

  let hash = function
    | Event.Tau -> 0
    | Event.Tick -> 1
    | Event.Vis e -> Event.hash e
end)

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

let of_norm ?alphabet:alpha norm =
  let n = Normalise.num_nodes norm in
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

(* Cache-fronted compile, the [Refine.cached_spec] pattern: only
   [Complete] results are stored, and a hit skips the compile/normalise
   spans entirely. *)
let compile ?(config = Check_config.default) ?alphabet defs spec =
  let obs = config.Check_config.obs in
  let budget_error (progress : Lts.progress) =
    Error
      (Printf.sprintf
         "specification graph exceeded its %s budget (%d states explored)"
         (match progress.Lts.reason with
          | `States -> "state"
          | `Deadline -> "deadline")
         progress.Lts.explored)
  in
  let fresh () =
    match
      Lts.compile_budgeted ~max_states:config.Check_config.max_states ~obs
        defs spec
    with
    | Lts.Partial (_, progress) -> budget_error progress
    | Lts.Complete lts -> Ok (lts, Normalise.normalise ~obs lts)
  in
  let norm =
    match config.Check_config.cache with
    | None -> Result.map snd (fresh ())
    | Some cache ->
      let key =
        Cache.spec_key ~max_states:config.Check_config.max_states defs spec
      in
      (match Cache.find cache key with
       | Some (Cache.Norm_spec (_, norm)) -> Ok norm
       | Some _ | None ->
         Result.map
           (fun (lts, norm) ->
             Cache.add cache key (Cache.Norm_spec (lts, norm));
             norm)
           (fresh ()))
  in
  Result.map (fun norm -> of_norm ?alphabet norm) norm

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

type stream_result = {
  stream : string;
  events : int;
  skipped_events : int;
  verdict : verdict;
}

type summary = {
  streams : int;
  accepted : int;
  rejected : int;
  events : int;
  skipped_events : int;
  wall_s : float;
  events_per_sec : float;
}

let check_one t (stream, labels) =
  let c = Seq.fold_left (step t) (start t) labels in
  { stream; events = consumed c; skipped_events = skipped c; verdict = verdict c }

let check_streams ?(workers = 1) ?(obs = Obs.silent) t streams =
  Obs.span obs "tracecheck.check_streams" (fun () ->
      let n = Array.length streams in
      let t0 = Obs.now () in
      (* Streams are independent, and claimed one at a time, so long and
         short streams balance across domains. *)
      let results =
        Fanout.init ~workers n (fun i -> check_one t streams.(i))
      in
      let wall_s = Obs.now () -. t0 in
      let accepted = ref 0 and rejected = ref 0 in
      let events = ref 0 and skipped_events = ref 0 in
      Array.iter
        (fun r ->
          (match r.verdict with
           | Accepted -> incr accepted
           | Rejected _ -> incr rejected);
          events := !events + r.events;
          skipped_events := !skipped_events + r.skipped_events)
        results;
      let events_per_sec =
        if wall_s > 0. then float_of_int !events /. wall_s else 0.
      in
      if not (Obs.is_silent obs) then begin
        Obs.add (Obs.counter obs "tracecheck.events") !events;
        Obs.add (Obs.counter obs "tracecheck.streams") n;
        Obs.observe
          (Obs.histogram obs "tracecheck.events_per_sec"
             ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |])
          events_per_sec
      end;
      ( results,
        {
          streams = n;
          accepted = !accepted;
          rejected = !rejected;
          events = !events;
          skipped_events = !skipped_events;
          wall_s;
          events_per_sec;
        } ))
