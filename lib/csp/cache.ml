(* Content-addressed store of compiled/normalised/reduced LTSs.

   Keys are digests of everything that determines the artifact: the
   elaborated process term, every definition/declaration reachable from
   it (so editing one CAPL handler only invalidates the components that
   actually call it), and a fingerprint of the compilation parameters
   (state budget, reduction pipeline, model, and — for reduced graphs —
   the specification digest, since the dead-event pass eliminates events
   against the spec alphabet). Digest and fingerprint construction is
   deliberately confined to this module (tools/lint.ml enforces it) so
   keying cannot silently drift between producers and consumers.

   The store is mutex-guarded — the daemon shares one across jobs, and
   [Cspm.Check.run] schedules independent assertions onto concurrent
   domains — and bounded by resident states with LRU eviction. A cached
   normal form keeps growing as checks materialise it, so its weight is
   read whenever the store does its accounting. Entries can optionally be
   spilled to a directory (one file per digest, written through an
   injected atomic writer so the cache directory never holds a torn
   artifact) and reloaded in a later process; terms read back from disk
   lost their physical identity to marshalling, so they are re-admitted
   through the hash-consing smart constructors before use. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident_states : int;
  resident_entries : int;
}

type persistence = {
  dir : string;
  write : path:string -> string -> unit;
}

type value =
  | Lts_graph of Lts.t  (** a compiled implementation graph *)
  | Norm_spec of Normalise.t
      (** a specification's normal form, as far as checks materialised it *)
  | Reduced of Lts.t * Reduce.pass_stat list
      (** an implementation graph after the graph passes of a pipeline *)

type entry = {
  key : string;
  value : value;
  mutable tick : int;  (** last-use stamp for LRU eviction *)
  mutable spilled : int;
      (** spec states the disk copy holds; a normal form is spilled again
          only once it has grown *)
}

type t = {
  mu : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_resident_states : int;
  persist : persistence option;
  mutable clock : int;
  mutable graph_states : int;  (** resident states of the graph entries *)
  norms : (string, Normalise.t) Hashtbl.t;
      (** the cached normal forms, whose weight moves *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  c_hits : Obs.counter;
  c_misses : Obs.counter;
  c_evictions : Obs.counter;
  g_resident : Obs.gauge;
}

let create ?(obs = Obs.silent) ?persist
    ?(max_resident_states = 4_000_000) () =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    max_resident_states;
    persist;
    clock = 0;
    graph_states = 0;
    norms = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    evictions = 0;
    c_hits = Obs.counter obs "serve.cache_hits";
    c_misses = Obs.counter obs "serve.cache_misses";
    c_evictions = Obs.counter obs "serve.cache_evictions";
    g_resident = Obs.gauge obs "serve.cache_resident_states";
  }

let weight_of = function
  | Lts_graph lts | Reduced (lts, _) -> Lts.num_states lts
  | Norm_spec norm -> Normalise.num_states norm

(* Called under the mutex. A normal form's weight moves while it is
   cached, so it is read whenever the store does its accounting; graph
   weights are fixed and kept as a running count. *)
let resident t =
  Hashtbl.fold
    (fun _ norm acc -> acc + Normalise.num_states norm)
    t.norms t.graph_states

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      resident_states = resident t;
      resident_entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mu;
  s

let json_of_stats (s : stats) =
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      "hits", num s.hits;
      "misses", num s.misses;
      "evictions", num s.evictions;
      "resident_states", num s.resident_states;
      "resident_entries", num s.resident_entries;
    ]

(* ------------------------------------------------------------------ *)
(* Keying                                                              *)
(* ------------------------------------------------------------------ *)

(* Names a term can depend on: called processes, applied (or referenced)
   functions. Variables are over-approximated — a bound variable that
   shadows a definition name drags the unused definition into the digest,
   which can only invalidate more than necessary, never less. *)
let rec expr_names acc (e : Expr.t) =
  match e with
  | Expr.Lit _ | Expr.Ty_dom _ -> acc
  | Expr.Var v -> v :: acc
  | Expr.Neg a | Expr.Not a -> expr_names acc a
  | Expr.Bin (_, a, b) | Expr.Range (a, b) | Expr.Mem (a, b) ->
    expr_names (expr_names acc a) b
  | Expr.Tuple es | Expr.Set es | Expr.Ctor (_, es) ->
    List.fold_left expr_names acc es
  | Expr.If (a, b, c) -> expr_names (expr_names (expr_names acc a) b) c
  | Expr.App (f, es) -> List.fold_left expr_names (f :: acc) es

let comm_names acc = function
  | Proc.Out e -> expr_names acc e
  | Proc.In (_, Some e) -> expr_names acc e
  | Proc.In (_, None) -> acc

let rec proc_names acc p =
  match Proc.view p with
  | Proc.Stop | Proc.Skip | Proc.Omega | Proc.Run _ | Proc.Chaos _ -> acc
  | Proc.Prefix (_, items, q) ->
    proc_names (List.fold_left comm_names acc items) q
  | Proc.Ext (a, b)
  | Proc.Int (a, b)
  | Proc.Seq (a, b)
  | Proc.Inter (a, b)
  | Proc.Interrupt (a, b)
  | Proc.Timeout (a, b) ->
    proc_names (proc_names acc a) b
  | Proc.Par (a, _, b) | Proc.APar (a, _, _, b) ->
    proc_names (proc_names acc a) b
  | Proc.Hide (q, _) | Proc.Rename (q, _) -> proc_names acc q
  | Proc.If (e, a, b) -> proc_names (proc_names (expr_names acc e) a) b
  | Proc.Guard (e, q) -> proc_names (expr_names acc e) q
  | Proc.Call (name, args) ->
    name :: List.fold_left expr_names acc args
  | Proc.Ext_over (_, e, q) | Proc.Int_over (_, e, q)
  | Proc.Inter_over (_, e, q) ->
    proc_names (expr_names acc e) q

(* Key material is serialised with [Marshal] and [No_sharing]: for pure
   data (strings, ints, constructors, lists — no closures, floats or
   physical identity) the bytes depend on the value alone, and distinct
   values of one type never serialise alike. That makes it a canonical,
   unambiguous rendering without a hand-written printer, and it is far
   cheaper than formatting expressions and event sets as text. *)
let canonical v = Marshal.to_string v [ Marshal.No_sharing ]

(* A process node with its children replaced by their digests: exactly
   what the node's own digest covers. *)
type shallow =
  | S_stop
  | S_skip
  | S_omega
  | S_prefix of string * Proc.comm_item list * Digest.t
  | S_ext of Digest.t * Digest.t
  | S_int of Digest.t * Digest.t
  | S_seq of Digest.t * Digest.t
  | S_par of Digest.t * Eventset.t * Digest.t
  | S_apar of Digest.t * Eventset.t * Eventset.t * Digest.t
  | S_inter of Digest.t * Digest.t
  | S_interrupt of Digest.t * Digest.t
  | S_timeout of Digest.t * Digest.t
  | S_hide of Digest.t * Eventset.t
  | S_rename of Digest.t * (string * string) list
  | S_if of Expr.t * Digest.t * Digest.t
  | S_guard of Expr.t * Digest.t
  | S_call of string * Expr.t list
  | S_ext_over of string * Expr.t * Digest.t
  | S_int_over of string * Expr.t * Digest.t
  | S_inter_over of string * Expr.t * Digest.t
  | S_run of Eventset.t
  | S_chaos of Eventset.t

(* Per-node content digests, memoized on the hash-consed term itself.
   The digest is computed from node content only (constructors, literals
   and child digests, never ids), and it is linear in the term DAG: each
   distinct node is digested once, where rendering a term as text
   re-renders a shared subterm once per path (the flat event-choice specs
   the security properties build made that milliseconds per key). The
   memo holds its terms alive, so a script elaborated again, such as the
   next daemon job, gets the same physical terms back from hash-consing
   and hits here instead of digesting every node afresh. *)
module Node_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

let node_digests : Digest.t Node_tbl.t = Node_tbl.create 4096
let node_digests_mu = Mutex.create ()

let digest_node root =
  let rec go p =
    match Node_tbl.find_opt node_digests p with
    | Some d -> d
    | None ->
      let shallow =
        match Proc.view p with
        | Proc.Stop -> S_stop
        | Proc.Skip -> S_skip
        | Proc.Omega -> S_omega
        | Proc.Prefix (c, items, k) -> S_prefix (c, items, go k)
        | Proc.Ext (a, b) -> S_ext (go a, go b)
        | Proc.Int (a, b) -> S_int (go a, go b)
        | Proc.Seq (a, b) -> S_seq (go a, go b)
        | Proc.Par (a, s, b) -> S_par (go a, s, go b)
        | Proc.APar (a, sa, sb, b) -> S_apar (go a, sa, sb, go b)
        | Proc.Inter (a, b) -> S_inter (go a, go b)
        | Proc.Interrupt (a, b) -> S_interrupt (go a, go b)
        | Proc.Timeout (a, b) -> S_timeout (go a, go b)
        | Proc.Hide (q, s) -> S_hide (go q, s)
        | Proc.Rename (q, map) -> S_rename (go q, map)
        | Proc.If (e, a, b) -> S_if (e, go a, go b)
        | Proc.Guard (e, q) -> S_guard (e, go q)
        | Proc.Call (name, args) -> S_call (name, args)
        | Proc.Ext_over (v, e, q) -> S_ext_over (v, e, go q)
        | Proc.Int_over (v, e, q) -> S_int_over (v, e, go q)
        | Proc.Inter_over (v, e, q) -> S_inter_over (v, e, go q)
        | Proc.Run s -> S_run s
        | Proc.Chaos s -> S_chaos s
      in
      let d = Digest.string (canonical shallow) in
      (* the memo only ever grows, and it pins its terms; a backstop
         reset bounds a long daemon lifetime at the price of re-digesting
         afterwards *)
      if Node_tbl.length node_digests > 100_000 then
        Node_tbl.reset node_digests;
      Node_tbl.replace node_digests p d;
      d
  in
  Mutex.protect node_digests_mu (fun () -> go root)

(* The transitive closure of definitions the term can reach, sorted by
   name, each with its process and function definition: editing one
   handler body invalidates only its dependents. *)
let reachable_defs defs roots =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      let proc = Defs.proc defs name and fn = Defs.fenv defs name in
      Hashtbl.add seen name (proc, fn);
      (match proc with
       | Some (_, body) -> List.iter visit (proc_names [] body)
       | None -> ());
      match fn with
      | Some (_, body) -> List.iter visit (expr_names [] body)
      | None -> ()
    end
  in
  List.iter visit roots;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun n d acc -> (n, d) :: acc) seen [])

(* Channel/datatype/nametype declarations are global in a script, so they
   are folded into every key wholesale: editing a declaration invalidates
   everything (correct). Serialising them is linear in the script, so
   their digest is taken once per state of an environment — [Defs.id] is
   unique per environment and [Defs.generation] moves with every
   declaration — rather than once per key, which made a job quadratic in
   its size. The digest itself covers content only, so equal declarations
   in distinct environments still key identically. *)
let decl_digests : (int * int, Digest.t) Hashtbl.t = Hashtbl.create 16
let decl_digests_mu = Mutex.create ()

let declarations_digest defs =
  let slot = Defs.id defs, Defs.generation defs in
  Mutex.protect decl_digests_mu (fun () ->
      match Hashtbl.find_opt decl_digests slot with
      | Some d -> d
      | None ->
        let d =
          Digest.string
            (canonical
               ( Defs.domain_limit defs,
                 (* names are unique, so ordering by name gives the list
                    a whole-pair comparison would, at a fraction of the
                    cost: this runs once per job a daemon checks *)
                 List.sort
                   (fun (a, _) (b, _) -> String.compare a b)
                   (Defs.channels defs),
                 Defs.datatypes defs,
                 Defs.nametypes defs ))
        in
        (* a job keys one environment and drops it, and ids are never
           reused: the memo need only span the environments in use at
           once, and a reset costs one re-serialisation each *)
        if Hashtbl.length decl_digests > 64 then Hashtbl.reset decl_digests;
        Hashtbl.replace decl_digests slot d;
        d)

(* Digests already taken, by declarations digest and term. A daemon
   re-check elaborates the same script again, and hash-consing hands it
   back the same terms and definition bodies; a hit is confirmed by
   resolving the reachable definitions afresh and comparing them with
   the ones the digest was taken over, so only the serialisation and
   hashing are skipped. *)
type resolved =
  (string * ((string list * Proc.t) option * (string list * Expr.t) option))
  list

let term_digests : (Digest.t * int, resolved * string) Hashtbl.t =
  Hashtbl.create 256

let term_digests_mu = Mutex.create ()

let same_defs (a : resolved) (b : resolved) =
  let same_def (n1, (p1, f1)) (n2, (p2, f2)) =
    String.equal n1 n2
    && Option.equal
         (fun (ps1, b1) (ps2, b2) ->
           List.equal String.equal ps1 ps2 && b1 == b2)
         p1 p2
    && Option.equal
         (fun (ps1, e1) (ps2, e2) ->
           List.equal String.equal ps1 ps2 && Expr.equal e1 e2)
         f1 f2
  in
  List.equal same_def a b

let digest_term defs p =
  let decls = declarations_digest defs in
  let reached = reachable_defs defs (proc_names [] p) in
  let slot = decls, Proc.id p in
  match
    Mutex.protect term_digests_mu (fun () ->
        Hashtbl.find_opt term_digests slot)
  with
  | Some (seen, d) when same_defs seen reached -> d
  | Some _ | None ->
    let def (name, (proc, fn)) =
      ( name,
        Option.map (fun (params, body) -> params, digest_node body) proc,
        fn )
    in
    let d =
      Digest.to_hex
        (Digest.string
           (canonical
              ( "csp-cache-key/2",
                decls,
                List.map def reached,
                digest_node p )))
    in
    Mutex.protect term_digests_mu (fun () ->
        (* bounded like the node memo: a reset only costs re-digesting *)
        if Hashtbl.length term_digests > 100_000 then
          Hashtbl.reset term_digests;
        Hashtbl.replace term_digests slot (reached, d));
    d

(* The pipeline is part of a run's fingerprint: a checkpoint records a
   visit order, and the visit order of a reduced search means nothing to
   a differently-reduced one, so a mismatched resume must fail up front. *)
let script_digest ~pipeline source =
  Digest.to_hex
    (Digest.string
       (source ^ "\x00reductions=" ^ Reduce.pipeline_to_string pipeline))

(* Keys are assembled by concatenation: [Printf] costs more than the
   digest itself at the rate a re-check takes keys. *)
let term_key kind ~max_states defs p =
  String.concat "" [ kind; string_of_int max_states; "-"; digest_term defs p ]

let spec_key = term_key "norm-"
let impl_key = term_key "staged-"

let model_tag = function
  | `Traces -> "T"
  | `Failures -> "F"
  | `Fd -> "FD"

(* A reduced graph depends on the implementation, the pipeline, the model
   the passes were gated for, and the specification (the dead pass hides
   events against the spec's normal-form alphabet), so all four are in
   the key. [impl] and [spec] are the component keys, which already carry
   the state budget. *)
let reduced_key ~model ~pipeline ~spec ~impl =
  String.concat ""
    [
      "reduced-";
      model_tag model;
      "-";
      Reduce.fingerprint pipeline;
      "-(";
      spec;
      ")-(";
      impl;
      ")";
    ]

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(* Terms that travelled through [Marshal] are structurally intact but
   physically dead: they are not in the hash-consing table, so [Proc.equal]
   (physical equality) against live terms is always false and the search
   engine's interning would treat every cached state as fresh. Re-admit
   every node bottom-up through the smart constructors; sharing inside the
   marshalled value is preserved by memoizing on the dead ids (unique
   within one marshalled value), so one reinterner serves every term of
   a value. *)
let reinterner () =
  let memo = Hashtbl.create 256 in
  let rec go p =
    match Hashtbl.find_opt memo (Proc.id p) with
    | Some q -> q
    | None ->
      let q =
        match Proc.view p with
        | Proc.Stop -> Proc.stop
        | Proc.Skip -> Proc.skip
        | Proc.Omega -> Proc.omega
        | Proc.Prefix (c, items, k) -> Proc.prefix_items (c, items, go k)
        | Proc.Ext (a, b) -> Proc.ext (go a, go b)
        | Proc.Int (a, b) -> Proc.intc (go a, go b)
        | Proc.Seq (a, b) -> Proc.seq (go a, go b)
        | Proc.Par (a, s, b) -> Proc.par (go a, s, go b)
        | Proc.APar (a, sa, sb, b) -> Proc.apar (go a, sa, sb, go b)
        | Proc.Inter (a, b) -> Proc.inter (go a, go b)
        | Proc.Interrupt (a, b) -> Proc.interrupt (go a, go b)
        | Proc.Timeout (a, b) -> Proc.timeout (go a, go b)
        | Proc.Hide (q, s) -> Proc.hide (go q, s)
        | Proc.Rename (q, m) -> Proc.rename (go q, m)
        | Proc.If (e, a, b) -> Proc.ite (e, go a, go b)
        | Proc.Guard (e, q) -> Proc.guard (e, go q)
        | Proc.Call (name, args) -> Proc.call (name, args)
        | Proc.Ext_over (x, e, q) -> Proc.ext_over (x, e, go q)
        | Proc.Int_over (x, e, q) -> Proc.int_over (x, e, go q)
        | Proc.Inter_over (x, e, q) -> Proc.inter_over (x, e, go q)
        | Proc.Run s -> Proc.run s
        | Proc.Chaos s -> Proc.chaos s
      in
      Hashtbl.replace memo (Proc.id p) q;
      q
  in
  go

let reintern_proc root = reinterner () root

let reintern_lts (lts : Lts.t) =
  {
    lts with
    Lts.states = Array.map (reinterner ()) lts.Lts.states;
  }

(* What goes to disk: the key (revalidated on load — a digest collision
   or a renamed file must read as a miss, not as a wrong graph) and the
   artifact. A normal form goes as the snapshot of what is materialised,
   never a closure; a disk hit resumes materialising where it stopped. *)
type disk_value =
  | D_lts of Lts.t
  | D_norm of Normalise.snapshot
  | D_reduced of Lts.t * Reduce.pass_stat list

type disk_entry = {
  d_key : string;
  d_value : disk_value;
}

(* Marshal is not portable across compiler versions; the magic ties a
   cache directory to the format that wrote it. Inside that framing
   [Marshal.from_string] trusts its input, and a flipped bit can build an
   ill-typed value that crashes the process. So the magic is followed by
   the payload's hex digest and a newline, checked before unmarshalling.
   A mismatch, like any read failure, is a miss. The version moves
   whenever what a stored graph means moves, even if its type does not:
   /4 staged graphs carry call states and the raw stepper's row order,
   which counterexamples are re-derived from, so /3 files must miss. *)
let disk_magic = "cspm-lts-cache/4:" ^ Sys.ocaml_version ^ "\n"

let payload_digest payload = Digest.to_hex (Digest.string payload) ^ "\n"
let digest_len = String.length (payload_digest "")

let entry_path dir key = Filename.concat dir (key ^ ".ltsc")

let to_disk_value = function
  | Lts_graph lts -> D_lts lts
  | Norm_spec norm -> D_norm (Normalise.export norm)
  | Reduced (lts, stats) -> D_reduced (lts, stats)

let of_disk_value = function
  | D_lts lts -> Lts_graph (reintern_lts lts)
  | D_norm snap -> Norm_spec (Normalise.import ~term:(reinterner ()) snap)
  | D_reduced (lts, stats) -> Reduced (reintern_lts lts, stats)

let persist_store t key value =
  match t.persist with
  | None -> ()
  | Some { dir; write } -> (
    let payload = Marshal.to_string { d_key = key; d_value = value } [] in
    let contents = disk_magic ^ payload_digest payload ^ payload in
    try write ~path:(entry_path dir key) contents with Sys_error _ -> ())

let persist_load t key =
  match t.persist with
  | None -> None
  | Some { dir; _ } -> (
    let path = entry_path dir key in
    if not (Sys.file_exists path) then None
    else
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let n = in_channel_length ic in
            let header_len = String.length disk_magic + digest_len in
            if n < header_len then None
            else begin
              let magic = really_input_string ic (String.length disk_magic) in
              let digest = really_input_string ic digest_len in
              if not (String.equal magic disk_magic) then None
              else
                let payload = really_input_string ic (n - header_len) in
                if not (String.equal digest (payload_digest payload)) then
                  None
                else
                  let entry : disk_entry = Marshal.from_string payload 0 in
                  if String.equal entry.d_key key then
                    Some (of_disk_value entry.d_value)
                  else None
            end)
      with
      | Sys_error _ | End_of_file | Failure _ -> None)

(* ------------------------------------------------------------------ *)
(* The bounded store                                                   *)
(* ------------------------------------------------------------------ *)

(* Called under the mutex. Evict least-recently-used entries until the
   resident total fits, and return what stays resident; an entry heavier
   than the whole budget is evicted as soon as anything else needs room,
   but never blocks admission — a cache that refuses the one graph the
   workload needs would be useless. *)
let evict_to_fit t incoming =
  let budget = max incoming t.max_resident_states in
  let rec go resident =
    if resident + incoming <= budget then resident
    else
      match
        Hashtbl.fold
          (fun _ e acc ->
            match acc with
            | Some best when best.tick <= e.tick -> acc
            | _ -> Some e)
          t.table None
      with
      | None -> resident
      | Some e ->
        Hashtbl.remove t.table e.key;
        (match e.value with
         | Norm_spec _ -> Hashtbl.remove t.norms e.key
         | Lts_graph _ | Reduced _ ->
           t.graph_states <- t.graph_states - weight_of e.value);
        t.evictions <- t.evictions + 1;
        Obs.incr t.c_evictions;
        go (resident - weight_of e.value)
  in
  go (resident t)

(* Called under the mutex. *)
let admit t key value ~spilled =
  if not (Hashtbl.mem t.table key) then begin
    let weight = weight_of value in
    let resident = evict_to_fit t weight in
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table key { key; value; tick = t.clock; spilled };
    (match value with
     | Norm_spec norm -> Hashtbl.replace t.norms key norm
     | Lts_graph _ | Reduced _ ->
       t.graph_states <- t.graph_states + weight_of value);
    Obs.set t.g_resident (float_of_int (resident + weight))
  end

let note_hit t =
  t.hits <- t.hits + 1;
  Obs.incr t.c_hits

let note_miss t =
  t.misses <- t.misses + 1;
  Obs.incr t.c_misses

let find t key =
  Mutex.lock t.mu;
  let found =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      note_hit t;
      Some e.value
    | None -> None
  in
  Mutex.unlock t.mu;
  match found with
  | Some v -> Some v
  | None -> (
    (* Disk probe outside the lock: deserialising a graph can take longer
       than a search, and concurrent jobs must not serialise on it. A
       racing double-load is admitted once by [add]. *)
    match persist_load t key with
    | Some v ->
      Mutex.lock t.mu;
      note_hit t;
      admit t key v ~spilled:(weight_of v);
      Mutex.unlock t.mu;
      Some v
    | None ->
      Mutex.lock t.mu;
      note_miss t;
      Mutex.unlock t.mu;
      None)

let add t key value =
  Mutex.lock t.mu;
  admit t key value ~spilled:0;
  Mutex.unlock t.mu;
  match value with
  | Norm_spec _ -> ()  (* spilled by [spill] once a check has grown it *)
  | Lts_graph _ | Reduced _ -> persist_store t key (to_disk_value value)

let spill t key =
  match t.persist with
  | None -> ()
  | Some _ -> (
    Mutex.lock t.mu;
    let grown =
      match Hashtbl.find_opt t.table key with
      | Some ({ value = Norm_spec norm; _ } as e) ->
        let size = Normalise.num_states norm in
        if size > e.spilled then begin
          e.spilled <- size;
          Some norm
        end
        else None
      | Some _ | None -> None
    in
    Mutex.unlock t.mu;
    match grown with
    | Some norm -> persist_store t key (to_disk_value (Norm_spec norm))
    | None -> ())
