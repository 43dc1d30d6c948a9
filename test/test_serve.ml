(* The serve subsystem behind cspm_checkd: atomic file output, the
   cancellation token, the cspm-checkd/1 wire codec, and the supervised
   runner (backpressure, deadline-driven retry resuming from engine
   checkpoints, graceful drain) — all with injected emit/sleep hooks so
   nothing here waits on a real clock or a real signal. *)

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_str
let int k j = Option.bind (Obs.Json.member k j) Obs.Json.to_int
let event_name j = Option.value (str "event" j) ~default:"?"

let req k j =
  match int k j with
  | Some v -> v
  | None -> Alcotest.failf "event has no integer %S field" k

(* ------------------------------------------------------------------ *)
(* Fsio                                                                *)
(* ------------------------------------------------------------------ *)

let in_temp_dir f =
  let dir = Filename.temp_file "serve_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Serve.Fsio.atomic_write ~path "first";
      check_string "contents land" "first" (read_file path);
      Serve.Fsio.atomic_write ~path "second";
      check_string "overwrite replaces" "second" (read_file path);
      check_int "no temporaries left behind" 1 (Array.length (Sys.readdir dir)))

let test_atomic_write_failure_leaves_target () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Serve.Fsio.atomic_write ~path "precious";
      (try
         Serve.Fsio.with_atomic_out ~path (fun oc ->
             output_string oc "half-writ";
             failwith "disk on fire");
         Alcotest.fail "the writer's exception was swallowed"
       with Failure _ -> ());
      check_string "target untouched by the failed write" "precious"
        (read_file path);
      check_int "failed temporary removed" 1 (Array.length (Sys.readdir dir));
      (* a rename that fails (the target is a directory) removes the
         temporary too *)
      let sub = Filename.concat dir "sub" in
      Sys.mkdir sub 0o700;
      (match Serve.Fsio.atomic_write ~path:sub "x" with
       | () -> Alcotest.fail "a write over a directory succeeded"
       | exception Sys_error _ -> ());
      check_int "failed rename's temporary removed" 2
        (Array.length (Sys.readdir dir));
      Sys.rmdir sub)

let test_atomic_write_is_durable () =
  (* the durability contract, counted at the syscall shim: each
     successful write fsyncs the file data before the rename and the
     containing directory after it — two syncs, no fewer *)
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      let before = Serve.Fsio.fsync_count () in
      Serve.Fsio.atomic_write ~path "durable";
      check_int "file fsync + directory fsync" (before + 2)
        (Serve.Fsio.fsync_count ());
      (* a failed write never reaches the rename, so at most the file
         sync may have happened — the directory one must not *)
      let before = Serve.Fsio.fsync_count () in
      (try
         Serve.Fsio.with_atomic_out ~path (fun _ -> failwith "disk on fire")
       with Failure _ -> ());
      check_bool "a failed write does not sync the directory" true
        (Serve.Fsio.fsync_count () <= before + 1))

(* ------------------------------------------------------------------ *)
(* Signals                                                             *)
(* ------------------------------------------------------------------ *)

let test_token () =
  let t = Serve.Signals.create () in
  check_bool "fresh token is untripped" false (Serve.Signals.tripped t);
  check_bool "closure form agrees" false (Serve.Signals.read t ());
  Serve.Signals.trip t;
  Serve.Signals.trip t;
  check_bool "tripped (idempotently)" true (Serve.Signals.tripped t);
  check_bool "closure form agrees after trip" true (Serve.Signals.read t ())

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let test_request_parse () =
  (match
     Serve.Protocol.request_of_line
       {|{"schema":"cspm-checkd/1","op":"submit","id":"j1","script":"assert STOP [T= STOP","deadline_s":2.5,"workers":2,"max_states":100,"max_retries":3}|}
   with
   | Ok (Serve.Protocol.Submit j, v) ->
     check_bool "explicit /1 schema parses as v1" true (v = Serve.Protocol.V1);
     check_bool "job records its version" true
       (j.Serve.Protocol.version = Serve.Protocol.V1);
     check_bool "kind defaults to check" true
       (j.Serve.Protocol.kind = Serve.Protocol.Check);
     check_string "id" "j1" j.Serve.Protocol.id;
     (match j.Serve.Protocol.source with
      | Serve.Protocol.Inline s ->
        check_string "inline source" "assert STOP [T= STOP" s
      | Serve.Protocol.Path _ -> Alcotest.fail "expected an inline source");
     check_bool "deadline" true (j.Serve.Protocol.deadline_s = Some 2.5);
     check_int "workers" 2 j.Serve.Protocol.workers;
     check_bool "max_states" true (j.Serve.Protocol.max_states = Some 100);
     check_bool "max_retries" true (j.Serve.Protocol.max_retries = Some 3)
   | Ok _ -> Alcotest.fail "parsed as the wrong request"
   | Error msg -> Alcotest.fail msg);
  (match
     Serve.Protocol.request_of_line {|{"op":"submit","id":"j2","path":"m.csp"}|}
   with
   | Ok (Serve.Protocol.Submit j, v) ->
     check_bool "schema-less kind-less submit stays v1" true
       (v = Serve.Protocol.V1);
     check_bool "path source" true
       (j.Serve.Protocol.source = Serve.Protocol.Path "m.csp");
     check_int "workers default" 1 j.Serve.Protocol.workers;
     check_bool "optional fields default to None" true
       (j.Serve.Protocol.deadline_s = None
       && j.Serve.Protocol.max_states = None
       && j.Serve.Protocol.max_retries = None)
   | Ok _ -> Alcotest.fail "parsed as the wrong request"
   | Error msg -> Alcotest.fail msg);
  check_bool "health" true
    (Serve.Protocol.request_of_line {|{"op":"health"}|}
    = Ok (Serve.Protocol.Health, Serve.Protocol.V1));
  check_bool "drain" true
    (Serve.Protocol.request_of_line {|{"op":"drain"}|}
    = Ok (Serve.Protocol.Drain, Serve.Protocol.V1));
  check_bool "v2 health" true
    (Serve.Protocol.request_of_line
       {|{"schema":"cspm-checkd/2","op":"health"}|}
    = Ok (Serve.Protocol.Health, Serve.Protocol.V2));
  let rejects line =
    match Serve.Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  rejects "not json at all";
  rejects {|{"op":"submit","script":"x"}|};
  rejects {|{"op":"submit","id":"j","script":"x","path":"y"}|};
  rejects {|{"op":"submit","id":"j"}|};
  rejects {|{"op":"reboot"}|};
  rejects {|{"schema":"other/9","op":"health"}|}

let test_request_parse_v2 () =
  (* an explicit kind implies v2 even without a schema tag *)
  (match
     Serve.Protocol.request_of_line
       {|{"op":"submit","id":"t1","script":"SPEC = STOP","kind":"trace-check","corpus":"fleet.ndjson","specs":["SPEC_A","SPEC_B"],"dbc":"bus.dbc","workers":4}|}
   with
   | Ok (Serve.Protocol.Submit j, v) ->
     check_bool "kind field implies v2" true (v = Serve.Protocol.V2);
     (match j.Serve.Protocol.kind with
      | Serve.Protocol.Trace_check { corpus; specs; dbc } ->
        check_string "corpus" "fleet.ndjson" corpus;
        check_bool "specs" true (specs = [ "SPEC_A"; "SPEC_B" ]);
        check_bool "dbc" true (dbc = Some "bus.dbc")
      | Serve.Protocol.Check -> Alcotest.fail "expected a trace-check job");
     check_int "workers" 4 j.Serve.Protocol.workers
   | Ok _ -> Alcotest.fail "parsed as the wrong request"
   | Error msg -> Alcotest.fail msg);
  (* singular "spec" is sugar for a one-element list *)
  (match
     Serve.Protocol.request_of_line
       {|{"schema":"cspm-checkd/2","op":"submit","id":"t2","path":"m.csp","kind":"trace-check","corpus":"c.ndjson","spec":"SPEC_ONLY"}|}
   with
   | Ok (Serve.Protocol.Submit j, _) ->
     check_bool "singular spec" true
       (j.Serve.Protocol.kind
       = Serve.Protocol.Trace_check
           { corpus = "c.ndjson"; specs = [ "SPEC_ONLY" ]; dbc = None })
   | Ok _ -> Alcotest.fail "parsed as the wrong request"
   | Error msg -> Alcotest.fail msg);
  (* an explicit kind:"check" is a v2 check job *)
  (match
     Serve.Protocol.request_of_line
       {|{"op":"submit","id":"t3","path":"m.csp","kind":"check"}|}
   with
   | Ok (Serve.Protocol.Submit j, v) ->
     check_bool "explicit check kind is v2" true
       (v = Serve.Protocol.V2 && j.Serve.Protocol.kind = Serve.Protocol.Check)
   | Ok _ -> Alcotest.fail "parsed as the wrong request"
   | Error msg -> Alcotest.fail msg);
  let rejects line =
    match Serve.Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  (* trace-check under an explicit v1 schema *)
  rejects
    {|{"schema":"cspm-checkd/1","op":"submit","id":"t","path":"m.csp","kind":"trace-check","corpus":"c.ndjson"}|};
  (* trace-check without a corpus *)
  rejects {|{"op":"submit","id":"t","path":"m.csp","kind":"trace-check"}|};
  (* both spellings of the spec list *)
  rejects
    {|{"op":"submit","id":"t","path":"m.csp","kind":"trace-check","corpus":"c","spec":"A","specs":["B"]}|};
  (* an unknown kind *)
  rejects {|{"op":"submit","id":"t","path":"m.csp","kind":"fuzz"}|}

(* Request lines are external input: a mutated one must decode to a
   request or to a rejection reason, never raise. The pool covers v1 and
   v2 submits of both kinds, health and drain. *)
let request_lines =
  lazy
    [|
      {|{"schema":"cspm-checkd/1","op":"submit","id":"j1","script":"assert STOP [T= STOP","deadline_s":2.5,"workers":2,"max_states":100,"max_retries":3}|};
      {|{"op":"submit","id":"j2","path":"m.csp"}|};
      {|{"schema":"cspm-checkd/2","op":"submit","id":"j3","path":"m.csp","kind":"check","reductions":"bisim,tau","lint":true,"deny_warnings":false,"max_states":500}|};
      {|{"op":"submit","id":"t1","script":"SPEC = STOP","kind":"trace-check","corpus":"fleet.ndjson","specs":["SPEC_A","SPEC_B"],"dbc":"bus.dbc","workers":4}|};
      {|{"schema":"cspm-checkd/2","op":"submit","id":"t2","path":"m.csp","kind":"trace-check","corpus":"c.ndjson","spec":"SPEC_ONLY"}|};
      {|{"op":"health"}|};
      {|{"schema":"cspm-checkd/2","op":"health"}|};
      {|{"op":"drain"}|};
    |]

let requests_never_raise =
  QCheck.Test.make ~count:20_000
    ~name:"request_of_line classifies every mutated line"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (Helpers.gen_mutated ~pool:request_lines))
    (fun line ->
      match Serve.Protocol.request_of_line line with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "request_of_line raised %s"
          (Printexc.to_string e))

let test_events_tagged () =
  (* default tagging is the current schema; ~v:V1 reproduces the v1
     bytes, so a v1 job's event stream is unchanged *)
  List.iter
    (fun (name, j, j1) ->
      check_string (name ^ " schema") "cspm-checkd/2"
        (Option.value (str "schema" j) ~default:"?");
      check_string (name ^ " v1 schema") "cspm-checkd/1"
        (Option.value (str "schema" j1) ~default:"?");
      check_string (name ^ " event tag") name (event_name j))
    [
      ( "accepted",
        Serve.Protocol.accepted ~id:"j" ~queue_depth:1 (),
        Serve.Protocol.accepted ~v:Serve.Protocol.V1 ~id:"j" ~queue_depth:1 ()
      );
      ( "rejected",
        Serve.Protocol.rejected ~id:None ~reason:"r" (),
        Serve.Protocol.rejected ~v:Serve.Protocol.V1 ~id:None ~reason:"r" ()
      );
      ( "started",
        Serve.Protocol.started ~id:"j" ~attempt:1 (),
        Serve.Protocol.started ~v:Serve.Protocol.V1 ~id:"j" ~attempt:1 () );
      ( "retrying",
        Serve.Protocol.retrying ~id:"j" ~attempt:2 ~backoff_s:0.1
          ~resumed:true (),
        Serve.Protocol.retrying ~v:Serve.Protocol.V1 ~id:"j" ~attempt:2
          ~backoff_s:0.1 ~resumed:true () );
      ( "result",
        Serve.Protocol.result ~id:"j" ~attempts:1 ~interrupted:false
          ~report:Obs.Json.Null (),
        Serve.Protocol.result ~v:Serve.Protocol.V1 ~id:"j" ~attempts:1
          ~interrupted:false ~report:Obs.Json.Null () );
      ( "failed",
        Serve.Protocol.failed ~id:"j" ~attempts:1 ~reason:"r" (),
        Serve.Protocol.failed ~v:Serve.Protocol.V1 ~id:"j" ~attempts:1
          ~reason:"r" () );
      ( "health",
        Serve.Protocol.health ~queued:0 ~done_:0 ~failed:0 ~retries:0
          ~draining:false (),
        Serve.Protocol.health ~v:Serve.Protocol.V1 ~queued:0 ~done_:0
          ~failed:0 ~retries:0 ~draining:false () );
      ( "drained",
        Serve.Protocol.drained ~done_:0 ~failed:0 (),
        Serve.Protocol.drained ~v:Serve.Protocol.V1 ~done_:0 ~failed:0 () );
    ];
  (* a trace-check result carries its verdict counts as top-level fields *)
  let r =
    Serve.Protocol.result ~id:"t" ~attempts:1 ~interrupted:false
      ~verdicts:(10, 8, 2) ~report:Obs.Json.Null ()
  in
  check_int "result streams" 10 (req "streams" r);
  check_int "result accepted" 8 (req "accepted" r);
  check_int "result rejected" 2 (req "rejected" r)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let trivial_script = "channel a : {0..1}\nP = a!0 -> STOP\nassert P [T= P\n"

(* Three interleaved mod-16 counters: 4096 states — enough dequeues for
   the engine's 256-commit poll cadence to observe a deadline. *)
let big_script =
  "channel x : {0..15}\n\
   channel y : {0..15}\n\
   channel z : {0..15}\n\
   P(n) = x!n -> P((n+1)%16)\n\
   Q(n) = y!n -> Q((n+3)%16)\n\
   R(n) = z!n -> R((n+5)%16)\n\
   SYS = P(0) ||| Q(0) ||| R(0)\n\
   SPEC = x?v -> SPEC [] y?v -> SPEC [] z?v -> SPEC\n\
   assert SPEC [T= SYS\n"

let job ?deadline_s ?max_retries ?max_states ?(workers = 1) ?reductions
    ?(kind = Serve.Protocol.Check) ?(version = Serve.Protocol.V2)
    ?(lint = false) ?(deny_warnings = false) ~id source =
  {
    Serve.Protocol.id;
    source;
    kind;
    version;
    deadline_s;
    workers;
    max_states;
    max_retries;
    reductions;
    lint = lint || deny_warnings;
    deny_warnings;
  }

(* A runner whose emit appends to a list and whose sleep records the
   backoffs instead of waiting. *)
let make_runner ?(queue_limit = 16) ?(default_retries = 2) () =
  let events = ref [] and sleeps = ref [] in
  let cfg =
    {
      (Serve.Runner.default_config ~emit:(fun j -> events := j :: !events)) with
      Serve.Runner.queue_limit;
      default_retries;
      backoff_base_s = 0.01;
      backoff_max_s = 0.05;
      sleep = (fun s -> sleeps := s :: !sleeps);
    }
  in
  ( Serve.Runner.create cfg,
    (fun () -> List.rev !events),
    fun () -> List.rev !sleeps )

let test_backpressure_and_drain () =
  let t, events, _ = make_runner ~queue_limit:2 () in
  List.iter
    (fun id -> Serve.Runner.submit t (job ~id (Serve.Protocol.Inline trivial_script)))
    [ "j1"; "j2"; "j3" ];
  check_int "queue holds the limit" 2 (Serve.Runner.queue_depth t);
  (match List.map event_name (events ()) with
   | [ "accepted"; "accepted"; "rejected" ] -> ()
   | names -> Alcotest.failf "unexpected events: %s" (String.concat "," names));
  check_string "the third submission bounced off the full queue"
    "queue full"
    (Option.value (str "reason" (List.nth (events ()) 2)) ~default:"?");
  Serve.Runner.drain t;
  let names = List.map event_name (events ()) in
  check_bool "drained is the final event" true
    (List.nth names (List.length names - 1) = "drained");
  let results = List.filter (fun e -> event_name e = "result") (events ()) in
  check_int "both accepted jobs ran" 2 (List.length results);
  let drained = List.nth (events ()) (List.length names - 1) in
  check_int "drained counts done" 2 (req "done" drained);
  check_int "drained counts failed" 0 (req "failed" drained);
  (* after a drain, new submissions bounce *)
  Serve.Runner.submit t (job ~id:"late" (Serve.Protocol.Inline trivial_script));
  let last = List.nth (events ()) (List.length (events ()) - 1) in
  check_string "late submission rejected" "draining"
    (Option.value (str "reason" last) ~default:"?")

(* The daemon-side lint gate: a script with warning-level findings runs
   normally under plain lint (diagnostics ride on the result event) and
   is failed before any attempt under deny_warnings, with the blocking
   report attached — the daemon twin of the CLI's exit-4 path. *)
let test_lint_gate () =
  let warny =
    "channel a : {0..1}\n\
     channel ghost : {0..1}\n\
     P = a!0 -> P\n\
     assert P :[deadlock free]\n"
  in
  let t, events, _ = make_runner () in
  Serve.Runner.submit t
    (job ~id:"lax" ~lint:true (Serve.Protocol.Inline warny));
  Serve.Runner.submit t
    (job ~id:"strict" ~deny_warnings:true (Serve.Protocol.Inline warny));
  Serve.Runner.drain t;
  let result =
    match List.filter (fun e -> event_name e = "result") (events ()) with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected 1 result event, got %d" (List.length rs)
  in
  check_string "the lint-only job still checked" "lax"
    (Option.value (str "id" result) ~default:"?");
  (match Obs.Json.member "diagnostics" result with
   | Some d ->
     check_string "non-blocking findings ride on the result"
       "diagnostics/1"
       (Option.value (str "schema" d) ~default:"?")
   | None -> Alcotest.fail "result event lacks diagnostics");
  let failed =
    match List.filter (fun e -> event_name e = "failed") (events ()) with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected 1 failed event, got %d" (List.length fs)
  in
  check_string "deny-warnings blocks before any attempt"
    "blocking diagnostics"
    (Option.value (str "reason" failed) ~default:"?");
  (match Obs.Json.member "diagnostics" failed with
   | Some d ->
     check_bool "blocking report is attached and non-empty" true
       (match Obs.Json.member "summary" d with
        | Some s -> (
          match Obs.Json.member "warnings" s with
          | Some (Obs.Json.Num n) -> n > 0.
          | _ -> false)
        | None -> false)
   | None -> Alcotest.fail "failed event lacks diagnostics")

let test_load_failure () =
  let t, events, _ = make_runner () in
  Serve.Runner.submit t (job ~id:"bad" (Serve.Protocol.Inline "channel ???\n"));
  Serve.Runner.drain t;
  let failed = List.filter (fun e -> event_name e = "failed") (events ()) in
  check_int "one failed event" 1 (List.length failed);
  check_bool "failure carries a reason" true
    (match str "reason" (List.hd failed) with
     | Some r -> String.length r > 0
     | None -> false);
  let drained = List.hd (List.rev (events ())) in
  check_int "drained counts the failure" 1 (req "failed" drained)

(* The tentpole loop: a deadline far below one poll interval forces the
   first attempt inconclusive; each retry resumes from the previous
   attempt's checkpoint with a doubled budget until the check completes.
   The final verdict must be the uninterrupted one. *)
let test_retry_resumes_to_verdict () =
  (* Reductions stay off on both sides: the test is about the retry
     machinery, which needs a search slow enough for a 1e-5 s deadline
     to interrupt — the default pipeline collapses [big_script]'s
     accept-everything spec to almost nothing. *)
  let expected_pairs =
    match
      Cspm.Check.run
        ~config:Csp.Check_config.(default |> with_reductions [])
        (Cspm.Elaborate.load_string big_script)
    with
    | [ o ] -> (
      match o.Cspm.Check.result with
      | Csp.Refine.Holds s -> s.Csp.Refine.pairs
      | _ -> Alcotest.fail "the reference run should hold")
    | _ -> Alcotest.fail "one assertion expected"
  in
  let t, events, sleeps = make_runner () in
  Serve.Runner.submit t
    (job ~id:"slow" ~deadline_s:1e-5 ~max_retries:30 ~reductions:"none"
       (Serve.Protocol.Inline big_script));
  Serve.Runner.drain t;
  let retrying = List.filter (fun e -> event_name e = "retrying") (events ()) in
  check_bool "the tight deadline forced at least one retry" true
    (List.length retrying >= 1);
  List.iter
    (fun e ->
      check_bool "every retry resumed from a checkpoint" true
        (Obs.Json.member "resumed" e = Some (Obs.Json.Bool true)))
    retrying;
  let result =
    match List.filter (fun e -> event_name e = "result") (events ()) with
    | [ r ] -> r
    | _ -> Alcotest.fail "exactly one result event expected"
  in
  check_bool "the final result is not an interrupted partial" true
    (Obs.Json.member "interrupted" result = None);
  check_int "attempts = retries + 1" (List.length retrying + 1)
    (req "attempts" result);
  check_int "one backoff sleep per retry" (List.length retrying)
    (List.length (sleeps ()));
  List.iter
    (fun s -> check_bool "backoffs are positive and capped" true
        (s > 0. && s <= 0.05 *. 1.5))
    (sleeps ());
  let report =
    match Obs.Json.member "report" result with
    | Some r -> r
    | None -> Alcotest.fail "result carries no report"
  in
  check_string "embedded report keeps its schema" "cspm-check/1"
    (Option.value (str "schema" report) ~default:"?");
  match Obs.Json.member "assertions" report with
  | Some (Obs.Json.List [ a ]) ->
    check_string "resumed job reaches the uninterrupted verdict" "pass"
      (Option.value (str "verdict" a) ~default:"?");
    let stats =
      match Obs.Json.member "stats" a with
      | Some s -> s
      | None -> Alcotest.fail "pass entry carries no stats"
    in
    check_int "pair count identical to the uninterrupted run" expected_pairs
      (req "pairs" stats)
  | _ -> Alcotest.fail "report should carry exactly one assertion entry"

(* Retries exhausted: the deadline-inconclusive outcome stands and is
   reported as the job's (non-interrupted) result. *)
let test_retries_exhausted_reports_inconclusive () =
  let t, events, _ = make_runner () in
  Serve.Runner.submit t
    (job ~id:"hopeless" ~deadline_s:1e-5 ~max_retries:0 ~reductions:"none"
       (Serve.Protocol.Inline big_script));
  Serve.Runner.drain t;
  check_bool "no retry happened" true
    (not (List.exists (fun e -> event_name e = "retrying") (events ())));
  let result =
    match List.filter (fun e -> event_name e = "result") (events ()) with
    | [ r ] -> r
    | _ -> Alcotest.fail "exactly one result event expected"
  in
  check_int "a single attempt" 1 (req "attempts" result);
  match
    Option.bind (Obs.Json.member "report" result)
      (Obs.Json.member "assertions")
  with
  | Some (Obs.Json.List [ a ]) ->
    check_string "the outcome is inconclusive" "inconclusive"
      (Option.value (str "verdict" a) ~default:"?")
  | _ -> Alcotest.fail "report should carry exactly one assertion entry"

let test_health_event () =
  let t, events, _ = make_runner () in
  Serve.Runner.submit t (job ~id:"q1" (Serve.Protocol.Inline trivial_script));
  Serve.Runner.submit t (job ~id:"q2" (Serve.Protocol.Inline trivial_script));
  Serve.Runner.request t Serve.Protocol.Health;
  match List.filter (fun e -> event_name e = "health") (events ()) with
  | [ h ] ->
    check_int "health sees the queue" 2 (req "queued" h);
    check_int "nothing done yet" 0 (req "done" h);
    check_bool "not draining" true
      (Obs.Json.member "draining" h = Some (Obs.Json.Bool false))
  | _ -> Alcotest.fail "exactly one health event expected"

(* SIGTERM between submission and execution: the queue is failed without
   running a single search, and the drain still completes cleanly. *)
let test_cancel_fails_queue () =
  let events = ref [] in
  let cancel = Serve.Signals.create () in
  let cfg =
    {
      (Serve.Runner.default_config ~emit:(fun j -> events := j :: !events)) with
      Serve.Runner.sleep = ignore;
      cancel;
    }
  in
  let t = Serve.Runner.create cfg in
  Serve.Runner.submit t (job ~id:"q1" (Serve.Protocol.Inline trivial_script));
  Serve.Runner.submit t (job ~id:"q2" (Serve.Protocol.Inline trivial_script));
  Serve.Signals.trip cancel;
  Serve.Runner.drain t;
  let evs = List.rev !events in
  check_bool "no job was started" true
    (not (List.exists (fun e -> event_name e = "started") evs));
  let failed = List.filter (fun e -> event_name e = "failed") evs in
  check_int "both queued jobs failed" 2 (List.length failed);
  List.iter
    (fun e ->
      check_string "interrupt reason" "daemon interrupted"
        (Option.value (str "reason" e) ~default:"?"))
    failed;
  let drained = List.hd (List.rev evs) in
  check_string "still drains cleanly" "drained" (event_name drained);
  check_int "drained counts the casualties" 2 (req "failed" drained)

(* The full daemon loop against a scripted stdin: reader domain, request
   dispatch, implicit drain at end of input. *)
let test_serve_loop_end_to_end () =
  let requests =
    [
      Printf.sprintf
        {|{"schema":"cspm-checkd/1","op":"submit","id":"s1","script":%s}|}
        (Obs.Json.to_string (Obs.Json.Str trivial_script));
      {|{"op":"health"}|};
      {|{"op":"nonsense"}|};
    ]
  in
  let path = Filename.temp_file "serve_requests" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serve.Fsio.atomic_write ~path (String.concat "\n" requests ^ "\n");
      let events = ref [] in
      let cfg =
        {
          (Serve.Runner.default_config ~emit:(fun j -> events := j :: !events)) with
          Serve.Runner.sleep = (fun _ -> ());
        }
      in
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Serve.Runner.serve cfg ic);
      let evs = List.rev !events in
      let names = List.map event_name evs in
      List.iter
        (fun expected ->
          check_bool (expected ^ " event present") true
            (List.mem expected names))
        [ "accepted"; "health"; "rejected"; "result"; "drained" ];
      check_string "drained closes the stream" "drained"
        (List.nth names (List.length names - 1));
      let drained = List.hd (List.rev evs) in
      check_int "the submitted job completed" 1 (req "done" drained);
      check_int "nothing failed" 0 (req "failed" drained))

(* A job whose check raises (here unguarded recursion, met while
   stepping) fails alone, with the exception's text as its reason; the
   job queued behind it still runs, and the drain counts both. *)
let test_crashing_job_fails_alone () =
  let unguarded =
    "channel a : {0..3}\n\
     P = P [] a!1 -> P\n\
     Q = a?x -> Q\n\
     SYS = P [| {| a |} |] Q\n\
     assert SYS :[deadlock free]\n"
  in
  let requests =
    List.map
      (fun (id, script) ->
        Printf.sprintf {|{"op":"submit","id":%S,"script":%s}|} id
          (Obs.Json.to_string (Obs.Json.Str script)))
      [ "bad", unguarded; "ok", trivial_script ]
    @ [ {|{"op":"drain"}|} ]
  in
  let events = ref [] in
  let cfg =
    {
      (Serve.Runner.default_config ~emit:(fun j -> events := j :: !events)) with
      Serve.Runner.sleep = (fun _ -> ());
    }
  in
  let t = Serve.Runner.create cfg in
  List.iter
    (fun line ->
      match Serve.Protocol.request_of_line line with
      | Ok (r, v) -> Serve.Runner.request ~v t r
      | Error reason -> Alcotest.failf "request rejected: %s" reason)
    requests;
  Serve.Runner.drain t;
  let outcomes =
    List.filter
      (fun e ->
        List.mem (event_name e) [ "failed"; "result"; "drained" ])
      (List.rev !events)
  in
  Alcotest.(check (list string))
    "the crashing job fails, the next one completes, the daemon drains"
    [ "failed"; "result"; "drained" ]
    (List.map event_name outcomes);
  let failed = List.hd outcomes in
  check_string "the failure is the crashing job's" "bad"
    (Option.value (str "id" failed) ~default:"?");
  check_bool "the reason names the exception" true
    (Helpers.contains
       (Option.value (str "reason" failed) ~default:"")
       "Unguarded");
  let drained = List.nth outcomes 2 in
  check_int "one job done" 1 (req "done" drained);
  check_int "one job failed" 1 (req "failed" drained)

(* A trace-check job whose specification's tau-closure never ends
   (P can always unfold another interleaved copy of itself) stops
   compiling it at the job's deadline_s, and when the daemon's token
   trips: the job fails with a reason naming what stopped it, and the
   runner goes on. *)
let test_trace_check_compile_stops () =
  let corpus = Filename.temp_file "serve_corpus" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove corpus)
    (fun () ->
      ignore
        (Ota.Corpus.generate ~seed:5 ~streams:2 ~until_ms:100 ~path:corpus
           ());
      let endless =
        "channel rptSw : {0..7}\n\
         P = STOP |~| (P ||| rptSw!0 -> STOP)\n\
         SPEC_P = P\n"
      in
      let kind =
        Serve.Protocol.Trace_check { corpus; specs = []; dbc = None }
      in
      (* each event with the seconds since the runner was made *)
      let run ?deadline_s ~trip_after () =
        let events = ref [] and cancel = Serve.Signals.create () in
        let t0 = Unix.gettimeofday () in
        let t =
          Serve.Runner.create
            {
              (Serve.Runner.default_config ~emit:(fun j ->
                   events := (Unix.gettimeofday () -. t0, j) :: !events))
              with
              Serve.Runner.sleep = ignore;
              cancel;
            }
        in
        Serve.Runner.submit t
          (job ?deadline_s ~kind ~id:"endless" (Serve.Protocol.Inline endless));
        Serve.Runner.submit t
          (job ~id:"next" (Serve.Protocol.Inline trivial_script));
        let tripper =
          Option.map
            (fun s ->
              Domain.spawn (fun () ->
                  Unix.sleepf s;
                  Serve.Signals.trip cancel))
            trip_after
        in
        Serve.Runner.drain t;
        Option.iter Domain.join tripper;
        List.rev !events
      in
      let ending what evs =
        match
          List.find_opt
            (fun (_, e) ->
              str "id" e = Some "endless"
              && List.mem (event_name e) [ "failed"; "result" ])
            evs
        with
        | Some (at, e) ->
          check_string (what ^ ": the job fails") "failed" (event_name e);
          check_bool
            (Printf.sprintf "%s: it ends within 1.5 s (%.2f s)" what at)
            true (at < 1.5);
          Option.value (str "reason" e) ~default:""
        | None -> Alcotest.failf "%s: the job never ended" what
      in
      let names evs = List.map (fun (_, e) -> event_name e) evs in
      let evs = run ~deadline_s:0.5 ~trip_after:None () in
      let reason = ending "deadline_s 0.5" evs in
      check_bool ("the reason names the deadline: " ^ reason) true
        (Helpers.contains reason "deadline exhausted");
      check_bool "the check queued behind it gets its result" true
        (List.exists
           (fun (_, e) -> str "id" e = Some "next" && event_name e = "result")
           evs);
      check_string "the drain returns" "drained"
        (List.nth (names evs) (List.length evs - 1));
      let evs = run ~trip_after:(Some 0.3) () in
      let reason = ending "a tripped token" evs in
      check_bool ("the reason names the interrupt: " ^ reason) true
        (Helpers.contains reason "interrupted");
      check_string "the drain returns" "drained"
        (List.nth (names evs) (List.length evs - 1)))

let suite =
  ( "serve",
    [
      Alcotest.test_case "atomic_write lands whole files only" `Quick
        test_atomic_write;
      Alcotest.test_case "a failed atomic write leaves the target" `Quick
        test_atomic_write_failure_leaves_target;
      Alcotest.test_case "atomic writes fsync the file and its directory"
        `Quick test_atomic_write_is_durable;
      Alcotest.test_case "cancellation token semantics" `Quick test_token;
      Alcotest.test_case "request parsing accepts/rejects correctly" `Quick
        test_request_parse;
      Alcotest.test_case "v2 requests: kinds, spec lists, v1 rejections"
        `Quick test_request_parse_v2;
      QCheck_alcotest.to_alcotest requests_never_raise;
      Alcotest.test_case "every event is schema-tagged" `Quick
        test_events_tagged;
      Alcotest.test_case "bounded queue: backpressure then clean drain"
        `Quick test_backpressure_and_drain;
      Alcotest.test_case "unloadable scripts fail with a reason" `Quick
        test_load_failure;
      Alcotest.test_case "lint gate blocks and attaches diagnostics" `Quick
        test_lint_gate;
      Alcotest.test_case "deadline retry resumes to the full verdict" `Quick
        test_retry_resumes_to_verdict;
      Alcotest.test_case "exhausted retries report inconclusive" `Quick
        test_retries_exhausted_reports_inconclusive;
      Alcotest.test_case "health reports queue and counters" `Quick
        test_health_event;
      Alcotest.test_case "cancellation fails the queue, still drains" `Quick
        test_cancel_fails_queue;
      Alcotest.test_case "serve loop end to end over scripted input" `Quick
        test_serve_loop_end_to_end;
      Alcotest.test_case "a job that raises fails alone" `Quick
        test_crashing_job_fails_alone;
      Alcotest.test_case "a trace-check spec compile stops" `Quick
        test_trace_check_compile_stops;
    ] )
