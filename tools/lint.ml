(* Source lint, the formatting gate `dune runtest` enforces in lieu of
   ocamlformat (not available in every build environment): no tab
   characters, no trailing whitespace, and a final newline in every
   OCaml source file under the directories given on the command line. *)

let failures = ref 0

let complain path line msg =
  incr failures;
  Printf.eprintf "%s:%d: %s\n" path line msg

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Bare [int_of_string]/[float_of_string] raise [Failure] on malformed or
   overflowing input; library code must use the [_opt] forms and turn
   [None] into a positioned error. Enforced under lib/ only — tests,
   tools, and benches parse input they control. *)
let banned_conversions = [ "int_of_string"; "float_of_string" ]

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let lint_conversions path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  List.iter
    (fun name ->
      let ln = String.length name in
      let rec scan from =
        if from < n then
          match String.index_from_opt contents from name.[0] with
          | None -> ()
          | Some i ->
            if
              i + ln <= n
              && String.sub contents i ln = name
              && (i = 0 || not (is_ident_char contents.[i - 1]))
              && not (i + ln + 4 <= n && String.sub contents (i + ln) 4 = "_opt")
            then
              complain path (line_of i)
                (Printf.sprintf "bare %s (use %s_opt and report a positioned \
                                 error)" name name);
            scan (i + 1)
      in
      scan 0)
    banned_conversions

(* Observability discipline: [lib/obs] owns the clock ({!Obs.now}) and the
   sinks; the rest of the library must neither read wall time directly nor
   print to stdout, or the zero-cost-when-silent and byte-identical-output
   guarantees silently rot. The check is textual, so even a doc-comment
   mention trips it — link {!Obs.now} instead. *)
let banned_effects = [ "Unix.gettimeofday"; "Printf.printf" ]

let under_obs path =
  List.mem "obs" (String.split_on_char '/' path)

let lint_effects path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  List.iter
    (fun name ->
      let ln = String.length name in
      let rec scan from =
        if from < n then
          match String.index_from_opt contents from name.[0] with
          | None -> ()
          | Some i ->
            if
              i + ln <= n
              && String.sub contents i ln = name
              && (i = 0 || not (is_ident_char contents.[i - 1]))
              && (i + ln = n || not (is_ident_char contents.[i + ln]))
            then
              complain path (line_of i)
                (Printf.sprintf
                   "%s outside lib/obs (route clocks and output through Obs)"
                   name);
            scan (i + 1)
      in
      scan 0)
    banned_effects

(* Interruption discipline: [lib/serve] owns signal handling (the
   cancellation token plumbing) and the only legitimate blocking sleeps
   (retry backoff, the daemon's idle poll). Anywhere else under lib/, an
   installed handler would fight the CLIs' graceful-degradation handlers
   and a sleep would stall a search domain. Textual, like the effects
   lint: even a doc-comment mention trips it — link {!Serve.Signals}
   instead. *)
let banned_interruption =
  [ "Sys.signal"; "Sys.set_signal"; "Unix.sleep"; "Unix.sleepf" ]

let under_serve path =
  List.mem "serve" (String.split_on_char '/' path)

let lint_interruption path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  List.iter
    (fun name ->
      let ln = String.length name in
      let rec scan from =
        if from < n then
          match String.index_from_opt contents from name.[0] with
          | None -> ()
          | Some i ->
            if
              i + ln <= n
              && String.sub contents i ln = name
              && (i = 0 || not (is_ident_char contents.[i - 1]))
              && (i + ln = n || not (is_ident_char contents.[i + ln]))
            then
              complain path (line_of i)
                (Printf.sprintf
                   "%s outside lib/serve (route signals and sleeps through \
                    Serve)"
                   name);
            scan (i + 1)
      in
      scan 0)
    banned_interruption

(* Digest discipline: [lib/csp/cache.ml] owns every cache key and
   fingerprint, so the producer and consumer of a digest can never drift
   apart (a key computed one way and looked up another is a silent 0%
   hit rate, not an error). Anywhere else under lib/, [Digest] is a
   sign a key is being minted outside the cache module — route it
   through [Csp.Cache]. Textual, like the other discipline lints. *)
let under_cache path = Filename.basename path = "cache.ml"
                       || Filename.basename path = "cache.mli"

let lint_digest path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  let name = "Digest." in
  let ln = String.length name in
  let rec scan from =
    if from < n then
      match String.index_from_opt contents from name.[0] with
      | None -> ()
      | Some i ->
        if
          i + ln <= n
          && String.sub contents i ln = name
          && (i = 0 || not (is_ident_char contents.[i - 1]))
        then
          complain path (line_of i)
            "Digest outside lib/csp/cache (mint cache keys and fingerprints \
             through Csp.Cache)";
        scan (i + 1)
  in
  scan 0

(* Durable-output discipline: [lib/serve] owns file writing — [Fsio] for
   the atomic + durable primitive, [Trace_io] for the NDJSON corpus
   codec on top of it. An [open_out] anywhere else under lib/ is a
   torn-write and fsync bug waiting to happen (and for NDJSON, a second
   ad-hoc codec); route it through [Serve.Fsio], or [Serve.Trace_io] for
   can-trace/1 data. Reading is not confined — parsers legitimately open
   their own inputs. Textual, like the other discipline lints. *)
let banned_writers = [ "open_out"; "open_out_bin"; "open_out_gen" ]

let lint_writers path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  List.iter
    (fun name ->
      let ln = String.length name in
      let rec scan from =
        if from < n then
          match String.index_from_opt contents from name.[0] with
          | None -> ()
          | Some i ->
            if
              i + ln <= n
              && String.sub contents i ln = name
              && (i = 0 || not (is_ident_char contents.[i - 1]))
              && (i + ln = n || not (is_ident_char contents.[i + ln]))
            then
              complain path (line_of i)
                (Printf.sprintf
                   "%s outside lib/serve (write through Serve.Fsio; NDJSON \
                    corpora through Serve.Trace_io)"
                   name);
            scan (i + 1)
      in
      scan 0)
    banned_writers

(* Domain discipline: [lib/csp/fanout.ml] is where library work fans out
   across domains — whole assertions, trace streams, corpus batches — and
   [lib/serve/runner.ml] spawns the daemon's blocking stdin reader. A
   [Domain.spawn] anywhere else under lib/ is a second, finer-grained
   pool growing back inside one search, which measured no faster than one
   domain on a 2-vCPU host (EXPERIMENTS.md, "Parallel scaling"); route
   the work through [Csp.Fanout] instead. Textual, like the other
   discipline lints. *)
let spawns_domains path =
  match Filename.basename path with
  | "fanout.ml" | "runner.ml" -> true
  | _ -> false

(* Complain with [msg] at every whole-word occurrence of [name]. *)
let scan_word path contents name msg =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  let ln = String.length name in
  let rec scan from =
    if from < n then
      match String.index_from_opt contents from name.[0] with
      | None -> ()
      | Some i ->
        if
          i + ln <= n
          && String.sub contents i ln = name
          && (i = 0 || not (is_ident_char contents.[i - 1]))
          && (i + ln = n || not (is_ident_char contents.[i + ln]))
        then complain path (line_of i) msg;
        scan (i + 1)
  in
  scan 0

let lint_domains path contents =
  scan_word path contents "Domain.spawn"
    "Domain.spawn outside lib/csp/fanout (fan whole units out through \
     Csp.Fanout)"

(* Library code must not kill the process or trip the always-on assertion
   machinery: raise [Invalid_argument]/a domain exception and let the CLI
   decide the exit code. [exit] is only flagged in call position (next
   non-space char is a digit or an opening parenthesis) so record fields
   named [exit] and prose mentions stay legal; the qualified form is
   always a call. *)
let lint_termination path contents =
  let n = String.length contents in
  let line_of pos =
    let l = ref 1 in
    String.iteri (fun j c -> if j < pos && c = '\n' then incr l) contents;
    !l
  in
  scan_word path contents "Stdlib.exit"
    "Stdlib.exit under lib/ (raise and let the CLI choose the exit code)";
  scan_word path contents ("assert" ^ " false")
    "assertion of false under lib/ (use invalid_arg with a message)";
  (* bare [exit] in call position *)
  let rec scan from =
    if from < n then
      match String.index_from_opt contents from 'e' with
      | None -> ()
      | Some i ->
        (if
           i + 4 <= n
           && String.sub contents i 4 = "exit"
           && (i = 0
               || (not (is_ident_char contents.[i - 1]))
                  && contents.[i - 1] <> '.')
         then
           let rec next_visible j =
             if j >= n then None
             else if contents.[j] = ' ' || contents.[j] = '\n' then
               next_visible (j + 1)
             else Some contents.[j]
           in
           match next_visible (i + 4) with
           | Some ('0' .. '9' | '(') ->
             complain path (line_of i)
               "exit under lib/ (raise and let the CLI choose the exit code)"
           | _ -> ());
        scan (i + 1)
  in
  scan 0

(* Structural-identity discipline: [Proc.t] and [Expr.t] are hash-consed
   (resp. interned), so the polymorphic operations are wrong on them —
   [Stdlib.compare]/[Hashtbl.hash] see unique ids and cached hash fields,
   making equal terms compare unequal across interners, and they walk the
   whole DAG as a tree. Under lib/csp, a line that reaches for a generic
   operation while naming [Proc.]/[Expr.], or a comparator-functor body
   whose [type t] is [Proc.t]/[Expr.t], must use the modules' own
   [compare]/[equal]/[hash]. The defining modules are exempt: they are
   the one place the representation may be inspected. *)
let under_csp path = List.mem "csp" (String.split_on_char '/' path)

let defines_identity path =
  match Filename.basename path with
  | "proc.ml" | "proc.mli" | "expr.ml" | "expr.mli" -> true
  | _ -> false

let poly_ops =
  [
    "Stdlib.compare";
    "Hashtbl.hash";
    "List.sort compare";
    "sort_uniq compare";
    "stable_sort compare";
  ]

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

let lint_poly_compare path contents =
  let window = ref 0 in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      if contains line "= Proc.t" || contains line "= Expr.t" then
        window := 6;
      let hazard =
        List.exists (contains line) poly_ops
        || (!window > 0
            && (contains line "= compare" || contains line "= (=)"))
      in
      if
        hazard
        && (!window > 0 || contains line "Proc." || contains line "Expr.")
      then
        complain path lno
          "polymorphic compare/hash on hash-consed terms (use \
           Proc.compare/equal/hash or the Expr equivalents)";
      if !window > 0 then decr window)
    (String.split_on_char '\n' contents)

(* Every implementation under lib/ carries an interface: the .mli is where
   invariants live and what keeps internal helpers out of the dependency
   surface. Pure-AST modules (basename ending in "ast.ml") are exempt —
   their whole point is an exposed concrete type. *)
let lint_interface path =
  let base = Filename.basename path in
  let exempt =
    let suffix = "ast.ml" in
    String.length base >= String.length suffix
    && String.sub base
         (String.length base - String.length suffix)
         (String.length suffix)
       = suffix
  in
  if (not exempt) && not (Sys.file_exists (path ^ "i")) then
    complain path 1 "missing interface file (.mli) for library module"

let lint_file ~strict path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  (* dune drops interface stubs for executables next to the sources *)
  if not (starts_with "(* Auto-generated by Dune *)" contents) then begin
    if n > 0 && contents.[n - 1] <> '\n' then
      complain path 1 "no newline at end of file";
    let line = ref 1 in
    String.iteri
      (fun i c ->
        if c = '\t' then complain path !line "tab character";
        if c = '\n' then begin
          if i > 0 && contents.[i - 1] = ' ' then
            complain path !line "trailing whitespace";
          incr line
        end)
      contents;
    if strict then begin
      lint_conversions path contents;
      lint_termination path contents;
      if Filename.check_suffix path ".ml" then lint_interface path;
      if not (under_obs path) then lint_effects path contents;
      if not (under_serve path) then begin
        lint_interruption path contents;
        lint_writers path contents
      end;
      if not (under_cache path) then lint_digest path contents;
      if not (spawns_domains path) then lint_domains path contents;
      if under_csp path && not (defines_identity path) then
        lint_poly_compare path contents
    end
  end

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec walk ~strict path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        if entry <> "_build" && entry.[0] <> '.' then
          walk ~strict (Filename.concat path entry))
      (Sys.readdir path)
  else if is_source path then lint_file ~strict path

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then walk ~strict:(Filename.basename arg = "lib") arg)
    Sys.argv;
  if !failures > 0 then begin
    Printf.eprintf "lint: %d problem(s)\n" !failures;
    exit 1
  end;
  print_endline "lint: ok"
