(* The bytes of [.ltsc] cache files, pinned. A cache entry is
   marshalled, and unmarshalling trusts that the stored bytes have
   today's types: a field added to a stored type reads an old file as
   garbage unless the [cspm-lts-cache/N] magic moves with it. This
   program checks one fixed script through a cache whose persistence
   captures every file it writes, and prints the magic line and each
   file's digest by key namespace. [test/dune] diffs the output against
   [ltsc_golden.expected], so a change to the stored types or the
   marshalled layout fails the suite until the magic is bumped and the
   expected file re-pinned.

   Hash-consing ids depend on the order terms are built in, so the
   check runs first thing in a fresh process; any term built before it
   would shift the ids the files store. *)

let script =
  "channel a, b, c\n\
   P = a -> b -> P [] c -> STOP\n\
   Q = a -> b -> Q\n\
   SPEC = a -> b -> SPEC [] c -> SPEC\n\
   SYSTEM = P [| {| a, b |} |] Q\n\
   assert SPEC [T= SYSTEM\n"

let () =
  let files = ref [] in
  let persist =
    {
      Csp.Cache.dir = "ltsc";
      write = (fun ~path contents -> files := (path, contents) :: !files);
    }
  in
  let config =
    Csp.Check_config.with_cache
      (Csp.Cache.create ~persist ())
      Csp.Check_config.default
  in
  let outcomes = Cspm.Check.run ~config (Cspm.Elaborate.load_string script) in
  if not (Cspm.Check.all_pass outcomes) then failwith "the check must hold";
  let magic =
    match !files with
    | (_, contents) :: _ -> List.hd (String.split_on_char '\n' contents)
    | [] -> failwith "the check wrote no cache file"
  in
  print_endline magic;
  !files
  |> List.map (fun (path, contents) ->
         let name = Filename.basename path in
         ( String.sub name 0 (String.index name '-' + 1),
           Digest.to_hex (Digest.string contents) ))
  |> List.sort compare
  |> List.iter (fun (namespace, digest) ->
         Printf.printf "%s %s\n" namespace digest)
