(** Crash-safe file output.

    Every artifact the tools leave behind (JSON reports, observability
    streams, checkpoints) is written through here: the bytes go to a
    hidden temporary file in the destination's own directory and the
    temporary is renamed over the target only after a clean close. A
    rename within one directory is atomic on POSIX filesystems, so a
    crash, signal, or full disk mid-write leaves either the previous
    file or no file — never a truncated artifact that parses as garbage.

    Writes are also {e durable}: the temporary's data is fsynced before
    the rename and the containing directory is fsynced after it, so once
    {!with_atomic_out} returns, the artifact survives power loss — not
    just process death. (Without the directory sync, the rename itself
    lives only in the page cache.) *)

val with_atomic_out : path:string -> (out_channel -> unit) -> unit
(** [with_atomic_out ~path f] runs [f] on a channel to a fresh temporary
    file next to [path], then renames it over [path]. If [f] raises (or
    the close or the rename fails), the temporary is removed and [path]
    is untouched; the exception propagates. *)

val atomic_write : path:string -> string -> unit
(** [atomic_write ~path contents] is [with_atomic_out] of one
    [output_string]. *)

val fsync_count : unit -> int
(** Number of fsync syscalls this module has issued in this process
    (file data and directory syncs both count). A successful
    {!with_atomic_out} increments it by two — the test hook for the
    durability contract above. *)
