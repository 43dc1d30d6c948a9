(* Span recording for the traced run.

   The benchmark opens its own spans around each public call into a layer.
   In [Full] mode it also hands the program an [Obs] handle with a JSONL
   sink and folds the spans the back end already emits ([cspm.parse],
   [check.assertion], [lts.compile], [reduce.*], [normalise],
   [search.product], ...) into the same per-op tree, nesting them by time
   containment. Spans stay in memory; [write] dumps them when the run
   ends.

   Modes, per op:
   - [Off]: nothing is recorded; the op runs exactly as in an untraced run.
   - [Spans]: only the benchmark's own spans and probes, with allocation
     deltas, each starting on an empty minor heap. Nothing inside the
     program writes anything, so allocation counts are exact and repeat
     run to run.
   - [Full]: [Spans] plus the program's [Obs] spans and counters. Times
     come from here; the JSONL writes make allocation counts inexact. *)

type mode = Off | Spans | Full

type span = {
  name : string;
  start : float;
  stop : float;
  words : float;  (** words allocated while open; [nan] for program spans *)
}

type node = {
  span : span;
  parent : int;  (** index into the op's node array; -1 at top level *)
  mutable self : float;  (** seconds not covered by child spans *)
}

type op = {
  id : int;
  mode : mode;
  op_s : float;  (** wall seconds *)
  factor : float;  (** host-speed scale for this op's times ({!Calib}) *)
  nodes : node array;  (** in start order *)
  probes : (string * (float * float)) list;  (** name -> seconds, words *)
  counters : (string * int) list;  (** program counter deltas (Full) *)
  notes : (string * float) list;  (** counts the op reported *)
}

type t = {
  mutable mode : mode;
  mutable spans : span list;
  mutable probes : (string * (float * float)) list;
  mutable notes : (string * float) list;
  obs : Obs.t;
  obs_t0 : float;  (** wall time when [obs] was created *)
  obs_path : string;
  obs_oc : out_channel;
  mutable obs_pos : int;
  mutable counters_before : (string * int) list;
  mutable log : (int * span * int) list;  (** op, span, parent: for [write] *)
}

let now = Unix.gettimeofday

(* [Gc.counters] reads the live allocation pointers, so it is exact at any
   point; [Gc.quick_stat] only catches up at collections. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The words count at the start of a span or probe. On OCaml 5.1 the
   runtime's count of the same work still differs by whole steps of about
   115k words with where in the minor heap the work starts, so in [Spans]
   mode, whose times nobody reads, every region starts on an empty one. *)
let start_words t =
  if t.mode = Spans then Gc.minor ();
  words ()

let create ~obs_path =
  let obs_oc = open_out_bin obs_path in
  let obs_t0 = now () in
  let obs = Obs.create (Obs.Jsonl obs_oc) in
  {
    mode = Off;
    spans = [];
    probes = [];
    notes = [];
    obs;
    obs_t0;
    obs_path;
    obs_oc;
    obs_pos = 0;
    counters_before = [];
    log = [];
  }

(* A handle that never records: untraced runs use it. *)
let off =
  {
    mode = Off;
    spans = [];
    probes = [];
    notes = [];
    obs = Obs.silent;
    obs_t0 = 0.;
    obs_path = "";
    obs_oc = stderr;
    obs_pos = 0;
    counters_before = [];
    log = [];
  }

let mode t = t.mode

(* The handle to pass into the program: live only in [Full] mode. *)
let obs t = if t.mode = Full then t.obs else Obs.silent

(* The recording handle itself, for long-lived program objects that take
   their handle once (a daemon runner used only by [Full] ops). *)
let full_obs t = t.obs

let check_config t =
  if t.mode = Full then Csp.Check_config.(default |> with_obs t.obs)
  else Csp.Check_config.default

let span t name f =
  if t.mode = Off then f ()
  else begin
    let w0 = start_words t in
    let start = now () in
    let r = f () in
    let stop = now () in
    let w1 = words () in
    t.spans <- { name; start; stop; words = w1 -. w0 } :: t.spans;
    r
  end

(* A probe times one layer in isolation, outside the op's timed window,
   to apportion a span whose inside the benchmark cannot wrap. It runs only
   while recording. *)
let probe t name f =
  if t.mode = Off then None
  else begin
    let w0 = start_words t in
    let start = now () in
    let r = f () in
    let stop = now () in
    let w1 = words () in
    let s, w = Option.value ~default:(0., 0.) (List.assoc_opt name t.probes) in
    t.probes <-
      (name, (s +. stop -. start, w +. w1 -. w0))
      :: List.remove_assoc name t.probes;
    Some r
  end

let note t name v =
  if t.mode <> Off then
    t.notes <-
      (name, v +. Option.value ~default:0. (List.assoc_opt name t.notes))
      :: List.remove_assoc name t.notes

let counters t =
  List.filter_map
    (fun (name, m) -> match m with Obs.Counter v -> Some (name, v) | _ -> None)
    (Obs.metrics t.obs)

let begin_op t mode =
  t.mode <- mode;
  t.spans <- [];
  t.probes <- [];
  t.notes <- [];
  if mode = Full then t.counters_before <- counters t

(* Program spans written since the last call, as absolute-time spans. *)
let ingest_obs t =
  flush t.obs_oc;
  let ic = open_in_bin t.obs_path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic t.obs_pos;
      let acc = ref [] in
      (try
         while true do
           let line = input_line ic in
           match Obs.Json.parse line with
           | Ok j when Obs.Json.member "ev" j = Some (Obs.Json.Str "span") ->
             let num k =
               Option.bind (Obs.Json.member k j) Obs.Json.to_float
               |> Option.value ~default:0.
             in
             let name =
               Option.bind (Obs.Json.member "name" j) Obs.Json.to_str
               |> Option.value ~default:"?"
             in
             let start = t.obs_t0 +. num "start_s" in
             acc := { name; start; stop = start +. num "dur_s"; words = nan }
                    :: !acc
           | _ -> ()
         done
       with End_of_file -> ());
      t.obs_pos <- pos_in ic;
      !acc)

(* Nest spans by time containment: sorted by start (longer first on a
   tie), each span's parent is the innermost open span containing its
   midpoint. Self time is duration minus the children's durations. *)
let tree spans =
  let a = Array.of_list spans in
  Array.sort
    (fun x y ->
      match compare x.start y.start with
      | 0 -> compare (y.stop -. y.start) (x.stop -. x.start)
      | c -> c)
    a;
  let nodes = Array.map (fun s -> { span = s; parent = -1; self = 0. }) a in
  let stack = ref [] in
  let nodes =
    Array.mapi
      (fun i n ->
        let s = n.span in
        let mid = (s.start +. s.stop) /. 2. in
        let rec pop = function
          | j :: rest when nodes.(j).span.stop < mid -> pop rest
          | st -> st
        in
        stack := pop !stack;
        let parent = match !stack with j :: _ -> j | [] -> -1 in
        stack := i :: !stack;
        { n with parent; self = s.stop -. s.start })
      nodes
  in
  Array.iter
    (fun n ->
      if n.parent >= 0 then
        let p = nodes.(n.parent) in
        p.self <- p.self -. (n.span.stop -. n.span.start))
    nodes;
  nodes

let end_op t ~id ~op_s ~factor =
  let program = if t.mode = Full then ingest_obs t else [] in
  let nodes = tree (program @ t.spans) in
  let counters =
    if t.mode <> Full then []
    else
      List.map
        (fun (name, v) ->
          let v0 =
            Option.value ~default:0 (List.assoc_opt name t.counters_before)
          in
          name, v - v0)
        (counters t)
  in
  Array.iter (fun n -> t.log <- (id, n.span, n.parent) :: t.log) nodes;
  let op =
    {
      id;
      mode = t.mode;
      op_s;
      factor;
      nodes;
      probes = t.probes;
      counters;
      notes = t.notes;
    }
  in
  t.mode <- Off;
  op

(* {1 Queries over one op} *)

let self_s (op : op) name =
  Array.fold_left
    (fun acc n -> if n.span.name = name then acc +. n.self else acc)
    0. op.nodes

let self_prefix_s (op : op) prefix =
  Array.fold_left
    (fun acc n ->
      if String.starts_with ~prefix n.span.name then acc +. n.self else acc)
    0. op.nodes

let words_of (op : op) name =
  Array.fold_left
    (fun acc n -> if n.span.name = name then acc +. n.span.words else acc)
    0. op.nodes

let top_level_s (op : op) =
  Array.fold_left
    (fun acc n ->
      if n.parent < 0 then acc +. (n.span.stop -. n.span.start) else acc)
    0. op.nodes

let probe_s (op : op) name =
  Option.fold ~none:0. ~some:fst (List.assoc_opt name op.probes)

let probe_words (op : op) name =
  Option.fold ~none:0. ~some:snd (List.assoc_opt name op.probes)

let counter (op : op) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name op.counters))

let note_of (op : op) name = Option.value ~default:0. (List.assoc_opt name op.notes)

(* Self time of [search.product] spans split into the first one under each
   parent (the verdict search) and any later ones (the raw re-derivation a
   reduced [Fails] runs to canonicalise its counterexample). *)
let search_split (op : op) =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun (first, later) n ->
      if n.span.name <> "search.product" then (first, later)
      else if Hashtbl.mem seen n.parent then (first, later +. n.self)
      else begin
        Hashtbl.replace seen n.parent ();
        (first +. n.self, later)
      end)
    (0., 0.) op.nodes

(* {1 Output} *)

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let t0 = match List.rev t.log with (_, s, _) :: _ -> s.start | [] -> 0. in
      List.iter
        (fun (op, s, parent) ->
          Printf.fprintf oc
            "{\"op\":%d,\"name\":%s,\"start_s\":%.6f,\"end_s\":%.6f,\"parent\":%d}\n"
            op
            (Obs.Json.to_string (Obs.Json.Str s.name))
            (s.start -. t0) (s.stop -. t0) parent)
        (List.rev t.log))

let close t =
  if t.obs_path <> "" then begin
    close_out_noerr t.obs_oc;
    try Sys.remove t.obs_path with Sys_error _ -> ()
  end
