(* Counts every fsync this module issues, so tests can assert the write
   path is durable (one for the file's data, one for the directory entry)
   without strace. *)
let fsyncs = Atomic.make 0

let fsync_count () = Atomic.get fsyncs

let fsync_fd fd =
  Unix.fsync fd;
  Atomic.incr fsyncs

(* Directories are opened read-only just to reach their fd; failure to
   open or sync one (some filesystems refuse) downgrades durability but
   must not fail the write that already happened. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try fsync_fd fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let with_atomic_out ~path f =
  let temp_dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir ~mode:[ Open_binary ]
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  match
    f oc;
    (* Durability, not just atomicity: the rename orders the directory
       entry ahead of nothing unless the file's blocks are on disk first,
       and the new entry itself lives in the page cache until the parent
       directory is synced — without both fsyncs a power cut after the
       rename can resurrect the old file or leave no file at all. *)
    flush oc;
    fsync_fd (Unix.descr_of_out_channel oc);
    close_out oc
  with
  | () ->
    (try Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    fsync_dir temp_dir
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let atomic_write ~path contents =
  with_atomic_out ~path (fun oc -> output_string oc contents)
