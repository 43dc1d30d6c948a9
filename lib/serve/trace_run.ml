(* Drive the streaming trace checker over an on-disk corpus.

   The corpus is read once, in batches. Within a batch, JSON parsing and
   frame-to-event mapping (the dominant cost — the cursor step itself is
   one hashtable probe) fan out across domains; cursor advancement then
   replays the batch sequentially in file order. Verdicts are therefore
   byte-identical at any worker count, and memory stays constant per
   stream: one cursor per (stream, requirement) plus a handful of
   counters, never the corpus itself. *)

type rejection = {
  stream : string;
  position : int;
  line : int;
  offending : string;
  expected : string list;
}

type requirement_report = {
  name : string;
  accepted : int;
  rejected : int;
  corrupt : int;
  samples : rejection list;
}

type report = {
  corpus : string;
  header : Trace_io.header;
  streams : int;
  streams_accepted : int;
  streams_rejected : int;
  entries : int;
  events : int;
  skipped : int;
  faults : int;
  malformed : int;
  wall_s : float;
  events_per_sec : float;
  requirements : requirement_report list;
  rejected_by_fault : (string * int) list;
}

let passed r =
  r.malformed = 0
  && List.for_all (fun q -> q.rejected = 0 && q.corrupt = 0) r.requirements

let report_schema = "trace-check/1"

let json_of_report ?(timing = true) r =
  let open Obs.Json in
  let num n = Num (float_of_int n) in
  Obj
    ([
       ("schema", Str report_schema);
       ("corpus", Str r.corpus);
       ("streams", num r.streams);
       ("streams_accepted", num r.streams_accepted);
       ("streams_rejected", num r.streams_rejected);
       ("entries", num r.entries);
       ("events", num r.events);
       ("skipped", num r.skipped);
       ("faults", num r.faults);
       ("malformed", num r.malformed);
     ]
    @ (if timing then
         [
           ("wall_s", Num r.wall_s);
           ("events_per_sec", Num (Float.round r.events_per_sec));
         ]
       else [])
    @ [
        ( "requirements",
          List
            (List.map
               (fun q ->
                 Obj
                   [
                     ("spec", Str q.name);
                     ("accepted", num q.accepted);
                     ("rejected", num q.rejected);
                     ("corrupt", num q.corrupt);
                     ( "rejections",
                       List
                         (List.map
                            (fun s ->
                              Obj
                                [
                                  ("stream", Str s.stream);
                                  ("position", num s.position);
                                  ("line", num s.line);
                                  ("offending", Str s.offending);
                                  ( "expected",
                                    List
                                      (List.map (fun e -> Str e) s.expected)
                                  );
                                ])
                            q.samples) );
                   ])
               r.requirements) );
        ( "rejected_by_fault",
          Obj (List.map (fun (k, n) -> k, num n) r.rejected_by_fault) );
        ("verdict", Str (if passed r then "pass" else "fail"));
      ])

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>corpus %s: %d streams (%d accepted, %d rejected), %d entries \
     (%d events, %d skipped, %d faults, %d malformed), %.2fs (%.0f \
     events/s)@,"
    r.corpus r.streams r.streams_accepted r.streams_rejected r.entries
    r.events r.skipped r.faults r.malformed r.wall_s r.events_per_sec;
  List.iter
    (fun q ->
      Format.fprintf ppf "  %-24s accepted %d  rejected %d  corrupt %d@,"
        q.name q.accepted q.rejected q.corrupt;
      List.iter
        (fun s ->
          Format.fprintf ppf
            "    %s: event %d (line %d) %s not allowed (expected: %s)@,"
            s.stream s.position s.line s.offending
            (match s.expected with
             | [] -> "nothing — spec terminated"
             | es when List.length es > 8 ->
               String.concat ", " (List.filteri (fun i _ -> i < 8) es)
               ^ Printf.sprintf ", … %d more" (List.length es - 8)
             | es -> String.concat ", " es))
        q.samples)
    r.requirements;
  (match r.rejected_by_fault with
   | [] -> ()
   | by ->
     Format.fprintf ppf "  rejected streams by declared fault: %s@,"
       (String.concat ", "
          (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) by)));
  Format.fprintf ppf "verdict: %s@]" (if passed r then "pass" else "fail")

(* One pre-parsed corpus line: everything the sequential cursor stage
   needs, computed in parallel. *)
type parsed =
  | P_entry of { stream : string; label : Csp.Event.label option; fault : bool }
  | P_meta of { stream : string option; kinds : string list }
  | P_bad of { stream : string option; reason : string }

(* The fault kinds a generator declared for a stream: the meta object's
   fields with a positive number or [true] — e.g. the {!Ota.Corpus}
   plan's [drop]/[corrupt]/[delay]/[duplicate] probabilities, its
   [babble] flag, and the [flawed]-ECU marker. *)
let kinds_of_meta = function
  | Obs.Json.Obj fields ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Obs.Json.Num n when n > 0. -> Some k
        | Obs.Json.Bool true -> Some k
        | _ -> None)
      fields
    |> List.sort_uniq String.compare
  | _ -> []

let parse_raw map raw =
  match Trace_io.parse_line raw with
  | Trace_io.Meta { stream; meta } ->
    P_meta { stream = Some stream; kinds = kinds_of_meta meta }
  | Trace_io.Malformed { stream; reason } -> P_bad { stream; reason }
  | Trace_io.Entry { stream; entry } ->
    P_entry
      {
        stream;
        label = map entry;
        fault =
          (match entry.Canbus.Trace_log.direction with
           | Canbus.Trace_log.Fault _ -> true
           | _ -> false);
      }

(* Per-stream checking state: O(1) per stream — one cursor per
   requirement plus counters. A corrupt line poisons its stream (the
   trace after a lost line is not the trace that was recorded); the
   cursors freeze and the stream reports [corrupt] for every
   requirement. *)
type stream_state = {
  mutable s_entries : int;
  mutable corrupt_at : (int * string) option;
  cursors : Csp.Tracecheck.cursor array;
  reject_line : int array;  (* corpus line of each cursor's rejection *)
}

type totals = {
  mutable entries : int;
  mutable events : int;
  mutable skipped : int;
  mutable faults : int;
  mutable malformed : int;
}

let check_corpus ?(workers = 1) ?(obs = Obs.silent) ?(batch = 8192)
    ?(sample_limit = 5) ~map ~requirements ~path () =
  Obs.span obs "tracecheck.corpus" (fun () ->
      let reqs = Array.of_list requirements in
      let nreq = Array.length reqs in
      let checkers = Array.map snd reqs in
      let states : (string, stream_state) Hashtbl.t = Hashtbl.create 1024 in
      let order = ref [] in
      let totals =
        { entries = 0; events = 0; skipped = 0; faults = 0; malformed = 0 }
      in
      let t0 = Obs.now () in
      let state_of stream =
        match Hashtbl.find_opt states stream with
        | Some st -> st
        | None ->
          let st =
            {
              s_entries = 0;
              corrupt_at = None;
              cursors =
                Array.map (fun c -> Csp.Tracecheck.start c) checkers;
              reject_line = Array.make nreq 0;
            }
          in
          Hashtbl.replace states stream st;
          order := stream :: !order;
          st
      in
      (* Declared fault kinds per stream, kept apart from [states]: a
         meta line alone must not make a stream exist (or count). *)
      let metas : (string, string list) Hashtbl.t = Hashtbl.create 64 in
      let advance line_no = function
        | P_meta { stream = None; _ } -> ()
        | P_meta { stream = Some stream; kinds } ->
          let prior =
            Option.value ~default:[] (Hashtbl.find_opt metas stream)
          in
          Hashtbl.replace metas stream
            (List.sort_uniq String.compare (kinds @ prior))
        | P_bad { stream; reason } ->
          totals.malformed <- totals.malformed + 1;
          (match stream with
           | None -> ()
           | Some stream ->
             let st = state_of stream in
             if st.corrupt_at = None then
               st.corrupt_at <- Some (line_no, reason))
        | P_entry { stream; label; fault } ->
          let st = state_of stream in
          totals.entries <- totals.entries + 1;
          st.s_entries <- st.s_entries + 1;
          if fault then totals.faults <- totals.faults + 1;
          if st.corrupt_at = None then (
            match label with
            | None -> totals.skipped <- totals.skipped + 1
            | Some label ->
              totals.events <- totals.events + 1;
              for r = 0 to nreq - 1 do
                let before = st.cursors.(r) in
                if Csp.Tracecheck.verdict before = Csp.Tracecheck.Accepted
                then begin
                  let after = Csp.Tracecheck.step checkers.(r) before label in
                  st.cursors.(r) <- after;
                  if Csp.Tracecheck.verdict after <> Csp.Tracecheck.Accepted
                  then st.reject_line.(r) <- line_no
                end
              done)
          else totals.skipped <- totals.skipped + 1
      in
      (* Parse the batch's lines across domains; replay in order. *)
      let parse_batch lines n =
        Csp.Fanout.init ~workers n (fun i -> parse_raw map lines.(i))
      in
      let run ic =
        let lines = Array.make batch "" in
        let rec loop line_no =
          let n = ref 0 in
          (try
             while !n < batch do
               lines.(!n) <- input_line ic;
               incr n
             done
           with End_of_file -> ());
          if !n > 0 then begin
            let parsed = parse_batch lines !n in
            Array.iteri (fun i p -> advance (line_no + i) p) parsed;
            if !n = batch then loop (line_no + !n)
          end
        in
        loop 2
      in
      match open_in_bin path with
      | exception Sys_error msg -> Error msg
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error "empty corpus (no header line)"
            | first -> (
              match Trace_io.header_of_line first with
              | Error _ as e -> e
              | Ok header ->
                run ic;
                let wall_s = Obs.now () -. t0 in
                let streams = List.rev !order in
                let accepted = Array.make nreq 0
                and rejected = Array.make nreq 0
                and corrupt = Array.make nreq 0
                and samples = Array.make nreq [] in
                let streams_accepted = ref 0 in
                (* Attribution: each rejected/corrupt stream counts once
                   under every fault kind its meta declared ("none" when
                   the generator declared nothing) — so the report says
                   which injected faults the specs actually caught. *)
                let by_fault : (string, int) Hashtbl.t =
                  Hashtbl.create 16
                in
                let attribute stream =
                  let kinds =
                    match Hashtbl.find_opt metas stream with
                    | Some (_ :: _ as ks) -> ks
                    | Some [] | None -> [ "none" ]
                  in
                  List.iter
                    (fun k ->
                      Hashtbl.replace by_fault k
                        (1
                        + Option.value ~default:0
                            (Hashtbl.find_opt by_fault k)))
                    kinds
                in
                List.iter
                  (fun stream ->
                    let st = Hashtbl.find states stream in
                    let clean = ref (st.corrupt_at = None) in
                    for r = 0 to nreq - 1 do
                      match st.corrupt_at with
                      | Some _ -> corrupt.(r) <- corrupt.(r) + 1
                      | None -> (
                        match Csp.Tracecheck.verdict st.cursors.(r) with
                        | Csp.Tracecheck.Accepted ->
                          accepted.(r) <- accepted.(r) + 1
                        | Csp.Tracecheck.Rejected
                            { position; offending; expected } ->
                          clean := false;
                          rejected.(r) <- rejected.(r) + 1;
                          if List.length samples.(r) < sample_limit then
                            samples.(r) <-
                              {
                                stream;
                                position;
                                line = st.reject_line.(r);
                                offending =
                                  Csp.Event.label_to_string offending;
                                expected =
                                  List.map Csp.Event.label_to_string
                                    expected;
                              }
                              :: samples.(r))
                    done;
                    if !clean then incr streams_accepted
                    else attribute stream)
                  streams;
                let requirements =
                  List.mapi
                    (fun r (name, _) ->
                      {
                        name;
                        accepted = accepted.(r);
                        rejected = rejected.(r);
                        corrupt = corrupt.(r);
                        samples = List.rev samples.(r);
                      })
                    requirements
                in
                let events_per_sec =
                  if wall_s > 0. then float_of_int totals.events /. wall_s
                  else 0.
                in
                if not (Obs.is_silent obs) then begin
                  Obs.add (Obs.counter obs "tracecheck.events") totals.events;
                  Obs.add
                    (Obs.counter obs "tracecheck.streams")
                    (List.length streams);
                  Obs.observe
                    (Obs.histogram obs "tracecheck.events_per_sec"
                       ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |])
                    events_per_sec
                end;
                Ok
                  {
                    corpus = path;
                    header;
                    streams = List.length streams;
                    streams_accepted = !streams_accepted;
                    streams_rejected =
                      List.length streams - !streams_accepted;
                    entries = totals.entries;
                    events = totals.events;
                    skipped = totals.skipped;
                    faults = totals.faults;
                    malformed = totals.malformed;
                    wall_s;
                    events_per_sec;
                    requirements;
                    rejected_by_fault =
                      List.sort
                        (fun (a, _) (b, _) -> String.compare a b)
                        (Hashtbl.fold
                           (fun k n acc -> (k, n) :: acc)
                           by_fault []);
                  })))

(* Resolve a trace-check job's pieces: the event mapper from the CAN
   database (explicit source text, or the one embedded in the corpus
   header) and one compiled checker per named specification. *)
let prepare ?(config = Csp.Check_config.default) ~(script : Cspm.Elaborate.t)
    ~specs ~dbc ~corpus () =
  let ( let* ) = Result.bind in
  let* dbc_text =
    match dbc with
    | Some text -> Ok text
    | None -> (
      let* header = Trace_io.read_header ~path:corpus in
      match header.Trace_io.dbc with
      | Some text -> Ok text
      | None ->
        Error
          "no CAN database: the corpus header embeds none and no \"dbc\" \
           was given")
  in
  let* db =
    match Candb.Dbc_parser.parse dbc_text with
    | db -> Ok db
    | exception Candb.Dbc_parser.Parse_error (msg, line) ->
      Error (Printf.sprintf "dbc line %d: %s" line msg)
  in
  let mapper = Extractor.Trace_rv.make db in
  let defs = script.Cspm.Elaborate.defs in
  let* names =
    match specs with
    | _ :: _ -> Ok specs
    | [] -> (
      match
        List.filter_map
          (fun (name, (params, _)) ->
            if params = [] && String.length name >= 4
               && String.sub name 0 4 = "SPEC"
            then Some name
            else None)
          (Csp.Defs.procs defs)
        |> List.sort String.compare
      with
      | [] ->
        Error
          "no specs: name them in the request or define nullary SPEC* \
           processes"
      | names -> Ok names)
  in
  let* requirements =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match Csp.Defs.proc defs name with
        | None -> Error (Printf.sprintf "unknown process %S" name)
        | Some (_ :: _, _) ->
          Error
            (Printf.sprintf "%S takes parameters; specs must be nullary"
               name)
        | Some ([], _) -> (
          match
            Csp.Tracecheck.compile ~config
              ~alphabet:(Extractor.Trace_rv.channels mapper)
              defs
              (Csp.Proc.call (name, []))
          with
          | Ok checker -> Ok ((name, checker) :: acc)
          | Error reason ->
            Error (Printf.sprintf "spec %s: %s" name reason)))
      (Ok []) names
    |> Result.map List.rev
  in
  Ok (Extractor.Trace_rv.label_of_entry mapper, requirements)
