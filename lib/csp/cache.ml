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
   domains — and bounded by resident implementation states with LRU
   eviction. Entries can optionally be spilled to a directory (one file
   per digest, written through an injected atomic writer so the cache
   directory never holds a torn artifact) and reloaded in a later
   process; terms read back from disk lost their physical identity to
   marshalling, so they are re-admitted through the hash-consing smart
   constructors before use. *)

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
  | Norm_spec of Lts.t * Normalise.t
      (** a compiled specification graph with its normal form *)
  | Reduced of Lts.t * Reduce.pass_stat list
      (** an implementation graph after the graph passes of a pipeline *)

type entry = {
  key : string;
  value : value;
  weight : int;  (** resident implementation states of the entry *)
  mutable tick : int;  (** last-use stamp for LRU eviction *)
}

type t = {
  mu : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_resident_states : int;
  persist : persistence option;
  mutable clock : int;
  mutable resident : int;
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
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    c_hits = Obs.counter obs "serve.cache_hits";
    c_misses = Obs.counter obs "serve.cache_misses";
    c_evictions = Obs.counter obs "serve.cache_evictions";
    g_resident = Obs.gauge obs "serve.cache_resident_states";
  }

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      resident_states = t.resident;
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

(* Per-node content digests, memoized on the hash-consed id. Two facts
   make the memo sound: the digest below is computed from node content
   only (tags, literals, and child digests — never ids), and [Proc.id]
   guarantees a dead term's id is only ever reused by a structurally
   identical resurrection, so a stale hit still names the same content.
   The payoff is linearity in the term DAG: rendering a term as a string
   re-renders a shared subterm once per path (the flat event-choice
   specs the security properties build make that milliseconds per key),
   while this walk visits each distinct node once, ever, per process. *)
let node_digests : (int, string) Hashtbl.t = Hashtbl.create 4096
let node_digests_mu = Mutex.create ()

let digest_node root =
  let rec go p =
    match Hashtbl.find_opt node_digests (Proc.id p) with
    | Some d -> d
    | None ->
      let buf = Buffer.create 128 in
      let tag s = Buffer.add_string buf s in
      let child q =
        Buffer.add_char buf ';';
        Buffer.add_string buf (go q)
      in
      let str s =
        Buffer.add_char buf ';';
        Buffer.add_string buf s
      in
      let expr e = str (Expr.to_string e) in
      let set s = str (Eventset.to_string s) in
      let comm = function
        | Proc.Out e ->
          str "!";
          expr e
        | Proc.In (v, None) -> str ("?" ^ v)
        | Proc.In (v, Some e) ->
          str ("?" ^ v ^ ":");
          expr e
      in
      (match Proc.view p with
       | Proc.Stop -> tag "stop"
       | Proc.Skip -> tag "skip"
       | Proc.Omega -> tag "omega"
       | Proc.Prefix (c, items, k) ->
         tag "prefix";
         str c;
         List.iter comm items;
         child k
       | Proc.Ext (a, b) ->
         tag "ext";
         child a;
         child b
       | Proc.Int (a, b) ->
         tag "int";
         child a;
         child b
       | Proc.Seq (a, b) ->
         tag "seq";
         child a;
         child b
       | Proc.Inter (a, b) ->
         tag "inter";
         child a;
         child b
       | Proc.Interrupt (a, b) ->
         tag "interrupt";
         child a;
         child b
       | Proc.Timeout (a, b) ->
         tag "timeout";
         child a;
         child b
       | Proc.Par (a, s, b) ->
         tag "par";
         child a;
         set s;
         child b
       | Proc.APar (a, sa, sb, b) ->
         tag "apar";
         child a;
         set sa;
         set sb;
         child b
       | Proc.Hide (q, s) ->
         tag "hide";
         child q;
         set s
       | Proc.Rename (q, map) ->
         tag "rename";
         child q;
         List.iter (fun (f, t) -> str (f ^ "<-" ^ t)) map
       | Proc.If (e, a, b) ->
         tag "if";
         expr e;
         child a;
         child b
       | Proc.Guard (e, q) ->
         tag "guard";
         expr e;
         child q
       | Proc.Call (name, args) ->
         tag "call";
         str name;
         List.iter expr args
       | Proc.Ext_over (v, e, q) ->
         tag "ext_over";
         str v;
         expr e;
         child q
       | Proc.Int_over (v, e, q) ->
         tag "int_over";
         str v;
         expr e;
         child q
       | Proc.Inter_over (v, e, q) ->
         tag "inter_over";
         str v;
         expr e;
         child q
       | Proc.Run s ->
         tag "run";
         set s
       | Proc.Chaos s ->
         tag "chaos";
         set s);
      let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      (* the memo only ever grows; a backstop reset bounds a pathological
         daemon lifetime at the price of re-digesting afterwards *)
      if Hashtbl.length node_digests > 1_000_000 then
        Hashtbl.reset node_digests;
      Hashtbl.replace node_digests (Proc.id p) d;
      d
  in
  Mutex.lock node_digests_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock node_digests_mu)
    (fun () -> go root)

(* The transitive closure of definitions the term can reach, rendered
   deterministically. Channel/datatype/nametype declarations are global
   in a script and cheap to render, so they are folded into every digest
   wholesale: editing a declaration invalidates everything (correct),
   editing one handler body invalidates only its dependents. *)
let add_reachable_defs buf defs roots =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      (match Defs.proc defs name with
       | Some (_, body) -> List.iter visit (proc_names [] body)
       | None -> ());
      match List.assoc_opt name (Defs.funcs defs) with
      | Some (_, body) -> List.iter visit (expr_names [] body)
      | None -> ()
    end
  in
  List.iter visit roots;
  let names = Hashtbl.fold (fun n () acc -> n :: acc) seen [] in
  List.iter
    (fun name ->
      (match Defs.proc defs name with
       | Some (params, body) ->
         Buffer.add_string buf
           (Printf.sprintf "\x00proc %s(%s)=%s" name
              (String.concat "," params)
              (digest_node body))
       | None -> ());
      match List.assoc_opt name (Defs.funcs defs) with
      | Some (params, body) ->
        Buffer.add_string buf
          (Printf.sprintf "\x00fun %s(%s)=%s" name
             (String.concat "," params)
             (Expr.to_string body))
      | None -> ())
    (List.sort String.compare names)

let add_declarations buf defs =
  Buffer.add_string buf
    (Printf.sprintf "\x00domain_limit=%d" (Defs.domain_limit defs));
  List.iter
    (fun (c, tys) ->
      Buffer.add_string buf
        (Printf.sprintf "\x00channel %s:%s" c
           (String.concat "." (List.map Ty.to_string tys))))
    (List.sort compare (Defs.channels defs));
  List.iter
    (fun (name, ctors) ->
      Buffer.add_string buf (Printf.sprintf "\x00datatype %s=" name);
      List.iter
        (fun (c, tys) ->
          Buffer.add_string buf
            (Printf.sprintf "%s(%s)|" c
               (String.concat "," (List.map Ty.to_string tys))))
        ctors)
    (List.sort compare (Defs.datatypes defs));
  List.iter
    (fun (name, ty) ->
      Buffer.add_string buf
        (Printf.sprintf "\x00nametype %s=%s" name (Ty.to_string ty)))
    (List.sort compare (Defs.nametypes defs))

let digest_term defs p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "csp-cache-key/1";
  add_declarations buf defs;
  add_reachable_defs buf defs (proc_names [] p);
  Buffer.add_string buf "\x00term=";
  Buffer.add_string buf (digest_node p);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let script_digest source = Digest.to_hex (Digest.string source)

let spec_key ~max_states defs p =
  Printf.sprintf "norm-%d-%s" max_states (digest_term defs p)

let impl_key ~max_states defs p =
  Printf.sprintf "staged-%d-%s" max_states (digest_term defs p)

let lts_key ~max_states defs p =
  Printf.sprintf "lts-%d-%s" max_states (digest_term defs p)

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
  Printf.sprintf "reduced-%s-%s-(%s)-(%s)" (model_tag model)
    (Reduce.fingerprint pipeline) spec impl

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(* Terms that travelled through [Marshal] are structurally intact but
   physically dead: they are not in the hash-consing table, so [Proc.equal]
   (physical equality) against live terms is always false and the search
   engine's interning would treat every cached state as fresh. Re-admit
   every node bottom-up through the smart constructors; sharing inside the
   marshalled graph is preserved by memoizing on the dead ids (unique
   within one marshalled value). *)
let reintern_proc root =
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
  go root

let reintern_lts (lts : Lts.t) =
  {
    lts with
    Lts.states = Array.map reintern_proc lts.Lts.states;
  }

(* What goes to disk: the key (revalidated on load — a digest collision
   or a renamed file must read as a miss, not as a wrong graph) and the
   graph(s). [Normalise.t] is not persisted: it is derived from the spec
   graph deterministically and cheaply relative to compilation, so a disk
   hit recomputes it. *)
type disk_value =
  | D_lts of Lts.t
  | D_norm of Lts.t
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
   A mismatch, like any read failure, is a miss. *)
let disk_magic = "cspm-lts-cache/2:" ^ Sys.ocaml_version ^ "\n"

let payload_digest payload = Digest.to_hex (Digest.string payload) ^ "\n"
let digest_len = String.length (payload_digest "")

let entry_path dir key = Filename.concat dir (key ^ ".ltsc")

let to_disk_value = function
  | Lts_graph lts -> D_lts lts
  | Norm_spec (lts, _) -> D_norm lts
  | Reduced (lts, stats) -> D_reduced (lts, stats)

let of_disk_value = function
  | D_lts lts -> Lts_graph (reintern_lts lts)
  | D_norm lts ->
    let lts = reintern_lts lts in
    Norm_spec (lts, Normalise.normalise lts)
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

let weight_of = function
  | Lts_graph lts | Norm_spec (lts, _) | Reduced (lts, _) ->
    Lts.num_states lts

(* Called under the mutex. Evict least-recently-used entries until the
   resident total fits; an entry heavier than the whole budget is evicted
   as soon as anything else needs room, but never blocks admission — a
   cache that refuses the one graph the workload needs would be useless. *)
let evict_to_fit t incoming =
  let budget = max incoming t.max_resident_states in
  while
    t.resident + incoming > budget && Hashtbl.length t.table > 0
  do
    let victim =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some best when best.tick <= e.tick -> acc
          | _ -> Some e)
        t.table None
    in
    match victim with
    | None -> ()
    | Some e ->
      Hashtbl.remove t.table e.key;
      t.resident <- t.resident - e.weight;
      t.evictions <- t.evictions + 1;
      Obs.incr t.c_evictions
  done

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
      (if not (Hashtbl.mem t.table key) then begin
         let weight = weight_of v in
         evict_to_fit t weight;
         t.clock <- t.clock + 1;
         Hashtbl.replace t.table key { key; value = v; weight; tick = t.clock };
         t.resident <- t.resident + weight;
         Obs.set t.g_resident (float_of_int t.resident)
       end);
      Mutex.unlock t.mu;
      Some v
    | None ->
      Mutex.lock t.mu;
      note_miss t;
      Mutex.unlock t.mu;
      None)

let add t key value =
  Mutex.lock t.mu;
  (if not (Hashtbl.mem t.table key) then begin
     let weight = weight_of value in
     evict_to_fit t weight;
     t.clock <- t.clock + 1;
     Hashtbl.replace t.table key { key; value; weight; tick = t.clock };
     t.resident <- t.resident + weight;
     Obs.set t.g_resident (float_of_int t.resident)
   end);
  Mutex.unlock t.mu;
  persist_store t key (to_disk_value value)
