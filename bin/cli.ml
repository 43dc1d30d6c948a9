(* The plumbing the four binaries share: reading inputs, loading CSPm,
   the flags that mean the same thing in every tool, the LTS cache, the
   observability sink, the one writer for output files, and the guard
   that turns an unwritable output or an exhausted stack or heap into a
   message and exit 2. [-j] stays in each binary: it sizes a different
   thing in each. *)

open Cmdliner

type format = Pretty | Json

exception Cannot_write of string * string
(* An output path and why it could not be written; {!guard} reports it. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [f], which writes [path]; an I/O failure becomes [Cannot_write]
   with the OS reason alone, since the runtime's message names the
   temporary file rather than [path]. *)
let writing path f =
  try f () with
  | Sys_error msg ->
    let reason =
      match String.rindex_opt msg ':' with
      | Some i -> String.sub msg (i + 1) (String.length msg - i - 1)
      | None -> msg
    in
    raise (Cannot_write (path, String.trim reason))
  | Unix.Unix_error (e, _, _) ->
    raise (Cannot_write (path, Unix.error_message e))

(* temp + rename: an interrupt mid-write never leaves a half-written file
   that happens to parse *)
let write ~path text =
  writing path (fun () -> Serve.Fsio.atomic_write ~path text)

let emit output text =
  match output with Some path -> write ~path text | None -> print_string text

(* A directory a tool writes into, created if missing (or by a
   concurrent run). A path that is not a directory and cannot be made one
   is [Cannot_write]. *)
let ensure_dir dir =
  (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with
   | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
   | Unix.Unix_error (e, _, _) ->
     raise (Cannot_write (dir, Unix.error_message e)));
  if not (Sys.is_directory dir) then
    raise (Cannot_write (dir, "not a directory"))

(* A CSPm script and its elaboration; a load error is one message that
   names the file. *)
let load_cspm ?obs path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | source ->
    Result.map
      (fun loaded -> (source, loaded))
      (Cspm.Elaborate.load_source ?obs ~name:path source)

(* [--trace-out]. A batch run writes the stream to a temporary file that
   is renamed into place once [f] returns or raises, so an interrupted
   run never leaves a truncated stream. The daemon runs until it is
   told to stop, so it streams to the path itself. *)
let with_trace ?(streaming = false) trace_out f =
  match trace_out with
  | None -> f Obs.silent
  | Some path when streaming ->
    let oc = writing path (fun () -> open_out path) in
    let obs = Obs.create (Obs.Jsonl oc) in
    Fun.protect
      ~finally:(fun () ->
        Obs.flush obs;
        close_out_noerr oc)
      (fun () -> f obs)
  | Some path -> (
    let outcome = ref (Error Exit) in
    writing path (fun () ->
        Serve.Fsio.with_atomic_out ~path (fun oc ->
            let obs = Obs.create (Obs.Jsonl oc) in
            (outcome := try Ok (f obs) with e -> Error e);
            Obs.flush obs));
    match !outcome with Ok v -> v | Error e -> raise e)

(* [--cache]/[--cache-dir] as parsed: [None] keeps no cache, [Some dir]
   keeps one, persisted under [dir] when it is given. *)
let make_cache ~obs =
  Option.map (fun dir ->
      let persist =
        Option.map
          (fun dir ->
            ensure_dir dir;
            { Csp.Cache.dir; write = Serve.Fsio.atomic_write })
          dir
      in
      Csp.Cache.create ~obs ?persist ())

(* Run a tool's body. An output that cannot be written, an input that
   cannot be read, and the two resource exhaustions no budget covers end
   in a message and exit 2 instead of an uncaught exception. *)
let guard ~name ?(stack_overflow = name ^ ": stack overflow")
    ?(out_of_memory = name ^ ": out of memory") f =
  try f () with
  | Cannot_write (path, reason) ->
    Printf.eprintf "%s: cannot write %s: %s\n%!" name path reason;
    2
  | Sys_error msg ->
    Printf.eprintf "%s: %s\n%!" name msg;
    2
  | Stack_overflow ->
    prerr_endline stack_overflow;
    2
  | Out_of_memory ->
    prerr_endline out_of_memory;
    2

(* The shared flags. *)

let format ~doc =
  Arg.(
    value
    & opt (enum [ "pretty", Pretty; "json", Json ]) Pretty
    & info [ "format" ] ~docv:"FMT" ~doc)

(* [None] runs no analysis; [Some deny_warnings] runs it, and with
   [deny_warnings] a warning blocks like an error. *)
let lint ~doc ~instead =
  let lint = Arg.(value & flag & info [ "lint" ] ~doc) in
  let deny =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:
            ("Implies $(b,--lint); treat warning diagnostics as blocking: \
              if the analysis reports any error or warning, print the \
              diagnostics and exit with status 4 without " ^ instead ^ "."))
  in
  Term.(
    const (fun lint deny -> if lint || deny then Some deny else None)
    $ lint $ deny)

let trace_out ?(streaming = false) contents =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          ("Write the observability stream (" ^ contents
         ^ ") to $(docv) as JSON Lines."
          ^
          if streaming then ""
          else
            " The file is written to a temporary name and renamed into \
             place when the run ends, so an interrupted run never leaves \
             a truncated stream."))

let output what =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:
          ("Write the " ^ what
         ^ " to $(docv) atomically (temp file + rename) instead of stdout."))

let cache ~doc ~dir_doc =
  let use = Arg.(value & flag & info [ "cache" ] ~doc) in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            ("Implies $(b,--cache); persist cache entries to $(docv) \
              (created if missing), written atomically and validated on \
              load. " ^ dir_doc))
  in
  Term.(
    const (fun use dir -> if use || Option.is_some dir then Some dir else None)
    $ use $ dir)
