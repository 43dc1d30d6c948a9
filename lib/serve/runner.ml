type config = {
  queue_limit : int;
  default_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  seed : int;
  max_deadline_factor : float;
  sleep : float -> unit;
  emit : Obs.Json.t -> unit;
  obs : Obs.t;
  cancel : Signals.token;
  cache : Csp.Cache.t option;
  state_dir : string option;
}

let default_config ~emit =
  {
    queue_limit = 16;
    default_retries = 2;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    seed = 0x5eed;
    max_deadline_factor = 8.0;
    sleep = Unix.sleepf;
    emit;
    obs = Obs.silent;
    cancel = Signals.create ();
    cache = None;
    state_dir = None;
  }

type t = {
  cfg : config;
  memo : Cspm.Elaborate.Memo.t;
  queue : Protocol.job Queue.t;
  mutable draining : bool;
  mutable jobs_done : int;
  mutable jobs_failed : int;
  mutable retries : int;
  rng : Random.State.t;
  g_queue : Obs.gauge;
  g_done : Obs.gauge;
  g_failed : Obs.gauge;
  c_retries : Obs.counter;
}

let create cfg =
  {
    cfg;
    memo = Cspm.Elaborate.Memo.create ();
    queue = Queue.create ();
    draining = false;
    jobs_done = 0;
    jobs_failed = 0;
    retries = 0;
    rng = Random.State.make [| cfg.seed |];
    g_queue = Obs.gauge cfg.obs "serve.queue_depth";
    g_done = Obs.gauge cfg.obs "serve.jobs_done";
    g_failed = Obs.gauge cfg.obs "serve.jobs_failed";
    c_retries = Obs.counter cfg.obs "serve.retries";
  }

let queue_depth t = Queue.length t.queue
let draining t = t.draining

let note_done t =
  t.jobs_done <- t.jobs_done + 1;
  Obs.set t.g_done (float_of_int t.jobs_done)

let note_failed t =
  t.jobs_failed <- t.jobs_failed + 1;
  Obs.set t.g_failed (float_of_int t.jobs_failed)

let submit t (job : Protocol.job) =
  let v = job.Protocol.version in
  if t.draining then
    t.cfg.emit
      (Protocol.rejected ~v ~id:(Some job.Protocol.id) ~reason:"draining" ())
  else if Queue.length t.queue >= t.cfg.queue_limit then
    t.cfg.emit
      (Protocol.rejected ~v ~id:(Some job.Protocol.id) ~reason:"queue full" ())
  else begin
    Queue.add job t.queue;
    Obs.set t.g_queue (float_of_int (Queue.length t.queue));
    t.cfg.emit
      (Protocol.accepted ~v ~id:job.Protocol.id
         ~queue_depth:(Queue.length t.queue) ())
  end

let cache_stats_json cfg =
  Option.map
    (fun c -> Csp.Cache.json_of_stats (Csp.Cache.stats c))
    cfg.cache

let emit_health ?v t =
  t.cfg.emit
    (Protocol.health ?v ?cache:(cache_stats_json t.cfg)
       ~queued:(Queue.length t.queue) ~done_:t.jobs_done
       ~failed:t.jobs_failed ~retries:t.retries ~draining:t.draining ())

(* A [path] job's load errors name its file, as [cspm_check]'s do. Every
   job parses through the runner's memo, so an edited script re-parses
   only the declarations the edit changed.

   Every job starts from an empty minor heap. The job before is dead by
   then, so the collection copies little, and the job's own short-lived
   data gets the whole minor heap. A one-off fig1-ota job promoted 35 k
   words this way, 61 k without the call, and 43 k through the whole
   parse, whose token array, a major-heap allocation, had brought a
   collection forward by accident (DESIGN.md §5, item 11). *)
let load_job t (job : Protocol.job) =
  Gc.minor ();
  let memo = t.memo in
  match
    match job.Protocol.source with
    | Protocol.Inline source ->
      (source, Cspm.Elaborate.load_source ~memo source)
    | Protocol.Path name ->
      let source = In_channel.with_open_bin name In_channel.input_all in
      (source, Cspm.Elaborate.load_source ~memo ~name source)
  with
  | source, loaded -> Result.map (fun loaded -> (source, loaded)) loaded
  | exception Sys_error msg -> Error msg
  | exception Stack_overflow -> Error "stack overflow while loading script"
  | exception Out_of_memory -> Error "out of memory while loading script"

(* Exercise the wire codec on every retry: a checkpoint that cannot
   survive its own JSON round trip must fail here, in the daemon, not in
   a client's hands. *)
let roundtrip_checkpoint cp =
  let encoded = Obs.Json.to_string (Csp.Search.json_of_checkpoint cp) in
  match Obs.Json.parse encoded with
  | Error msg -> invalid_arg ("checkpoint does not re-parse: " ^ msg)
  | Ok json -> (
    match Csp.Search.checkpoint_of_json json with
    | Ok cp -> cp
    | Error msg -> invalid_arg ("checkpoint does not round-trip: " ^ msg))

let backoff t attempt =
  let base =
    t.cfg.backoff_base_s *. (2. ** float_of_int (attempt - 1))
  in
  let capped = Float.min base t.cfg.backoff_max_s in
  (* jitter in [0.5x, 1.5x): desynchronises a fleet of retrying daemons *)
  capped *. (0.5 +. Random.State.float t.rng 1.0)

(* An attempt "timed out" when an outcome ran out of wall clock or hit
   the memory watermark — both are curable by another attempt with a
   doubled budget. State/pair exhaustion is a model-size problem retries
   cannot fix, so those outcomes stand. *)
let timed_out (o : Cspm.Check.outcome) =
  match o.Cspm.Check.result with
  | Csp.Refine.Inconclusive (_, hint) -> (
    match hint.Csp.Refine.exhausted with
    | Csp.Refine.Deadline | Csp.Refine.Memory -> true
    | _ -> false)
  | _ -> false

let rec first_timeout i = function
  | [] -> None
  | o :: rest -> if timed_out o then Some i else first_timeout (i + 1) rest

(* Where a job's retry checkpoint is spilled between attempts. The file
   is a full cspm-checkpoint/1 document, so if the daemon dies mid-retry
   the client can hand it straight to [cspm_check --resume]. *)
let checkpoint_path cfg (job : Protocol.job) =
  Option.map
    (fun dir -> Filename.concat dir (job.Protocol.id ^ ".ck.json"))
    cfg.state_dir

let remove_checkpoint cfg job =
  match checkpoint_path cfg job with
  | Some path when Sys.file_exists path ->
    (try Sys.remove path with Sys_error _ -> ())
  | Some _ | None -> ()

let spill_checkpoint cfg job st =
  match checkpoint_path cfg job with
  | Some path ->
    (try
       Fsio.atomic_write ~path
         (Obs.Json.to_string (Cspm.Check.json_of_resume_state st) ^ "\n")
     with Sys_error _ -> ())
  | None -> ()

let run_check_job t (job : Protocol.job) =
  let cfg = t.cfg in
  let v = job.Protocol.version in
  let retries =
    Option.value job.Protocol.max_retries ~default:cfg.default_retries
  in
  let reductions =
    Csp.Reduce.pipeline_of_string
      (Option.value job.Protocol.reductions ~default:"default")
  in
  match load_job t job, reductions with
  | Error reason, _ | _, Error reason ->
    cfg.emit (Protocol.failed ~v ~id:job.Protocol.id ~attempts:1 ~reason ());
    note_failed t
  | Ok (source, loaded), Ok reductions -> (
    (* The lint gate mirrors the CLI's --lint/--deny-warnings: blocking
       findings fail the job before any search attempt spends budget,
       with the full report attached for the client. Non-blocking
       findings ride along on the result event instead. *)
    let lint_report =
      if job.Protocol.lint then
        Some (Analysis.Cspm_analyze.analyze_loaded ~obs:cfg.obs loaded)
      else None
    in
    match lint_report with
    | Some ds
      when Analysis.Diag.blocking
             ~deny_warnings:job.Protocol.deny_warnings ds ->
      cfg.emit
        (Protocol.failed ~v
           ~diagnostics:(Analysis.Diag.json_of_list ds)
           ~id:job.Protocol.id ~attempts:1 ~reason:"blocking diagnostics"
           ());
      note_failed t
    | lint_report ->
    let diagnostics = Option.map Analysis.Diag.json_of_list lint_report in
    let report_of from outcomes =
      Cspm.Check.report_of_json_outcomes
        ?cache:(Option.map Csp.Cache.stats cfg.cache)
        (Cspm.Check.rendered from outcomes)
    in
    (* [from]: where this attempt starts — the outcomes earlier attempts
       settled, in script order, and the assertion to re-run from its
       engine checkpoint. *)
    let rec attempt k (from : Cspm.Check.resume_state) ~deadline_s =
      cfg.emit (Protocol.started ~v ~id:job.Protocol.id ~attempt:k ());
      let config =
        let open Csp.Check_config in
        let c =
          default
          |> with_obs cfg.obs
          |> with_cancel (Signals.read cfg.cancel)
          |> with_reductions reductions
        in
        let c =
          match job.Protocol.max_states with
          | Some n -> with_max_states n c
          | None -> c
        in
        let c =
          match cfg.cache with Some k -> with_cache k c | None -> c
        in
        match deadline_s with Some d -> with_deadline d c | None -> c
      in
      let from =
        {
          from with
          Cspm.Check.search =
            Option.map roundtrip_checkpoint from.Cspm.Check.search;
        }
      in
      let outcomes, stop = Cspm.Check.run_seq ~from ~config loaded in
      match stop with
      | Some st ->
        (* daemon shutdown interrupted the search mid-job: report what we
           have as a valid partial document and stop retrying. The spilled
           checkpoint is deliberately left behind (and refreshed) — it is
           the resume handle for a client that resubmits after restart. *)
        spill_checkpoint cfg job st;
        cfg.emit
          (Protocol.result ~v ?diagnostics ~id:job.Protocol.id ~attempts:k
             ~interrupted:true ~report:(report_of from outcomes) ());
        note_failed t
      | None -> (
        match
          if k <= retries then
            first_timeout from.Cspm.Check.next_index outcomes
          else None
        with
        | Some i ->
          let next = Cspm.Check.resume_at from outcomes i in
          (* Spill before sleeping: the backoff window is exactly when an
             impatient operator restarts the daemon. *)
          spill_checkpoint cfg job next;
          let pause = backoff t k in
          t.retries <- t.retries + 1;
          Obs.incr t.c_retries;
          cfg.emit
            (Protocol.retrying ~v ~id:job.Protocol.id ~attempt:(k + 1)
               ~backoff_s:pause
               ~resumed:(Option.is_some next.Cspm.Check.search) ());
          cfg.sleep pause;
          (* Double the per-attempt budget, but never past a configurable
             multiple of the job's own deadline — unbounded doubling let a
             pathological model hold the single-job runner hostage for
             2^retries times what the client asked for. *)
          let next_deadline =
            match deadline_s, job.Protocol.deadline_s with
            | Some d, Some d0 ->
              Some (Float.min (d *. 2.) (d0 *. cfg.max_deadline_factor))
            | Some d, None -> Some (d *. 2.)
            | None, _ -> None
          in
          attempt (k + 1) next ~deadline_s:next_deadline
        | None ->
          (* terminal verdict: the retry checkpoint is now stale state *)
          remove_checkpoint cfg job;
          cfg.emit
            (Protocol.result ~v ?diagnostics ~id:job.Protocol.id ~attempts:k
               ~interrupted:false ~report:(report_of from outcomes) ());
          note_done t)
    in
    attempt 1
      (Cspm.Check.fresh (Csp.Cache.script_digest ~pipeline:reductions source))
      ~deadline_s:job.Protocol.deadline_s)

(* Trace-check jobs are a single pass over the corpus — no product
   search, so no retries, checkpoints, or deadline doubling; an error
   anywhere (script, database, unreadable corpus) is terminal. A failing
   verdict is still a completed job: the report is the deliverable. *)
let run_trace_job t (job : Protocol.job) ~corpus ~specs ~dbc =
  let cfg = t.cfg in
  let v = job.Protocol.version in
  let fail reason =
    cfg.emit (Protocol.failed ~v ~id:job.Protocol.id ~attempts:1 ~reason ());
    note_failed t
  in
  match load_job t job with
  | Error reason -> fail reason
  | Ok (_source, loaded) -> (
    cfg.emit (Protocol.started ~v ~id:job.Protocol.id ~attempt:1 ());
    (* The deadline and the daemon's token bound the spec compile, the
       one step of a trace check that can run without end; the token
       alone also stops the corpus pass. *)
    let config =
      let open Csp.Check_config in
      let c =
        default |> with_obs cfg.obs |> with_cancel (Signals.read cfg.cancel)
      in
      let c =
        match job.Protocol.max_states with
        | Some n -> with_max_states n c
        | None -> c
      in
      let c = match cfg.cache with Some k -> with_cache k c | None -> c in
      match job.Protocol.deadline_s with
      | Some d -> with_deadline d c
      | None -> c
    in
    let dbc_text =
      match dbc with
      | None -> Ok None
      | Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | text -> Ok (Some text)
        | exception Sys_error msg -> Error msg)
    in
    match
      Result.bind dbc_text (fun dbc ->
          Trace_run.prepare ~config ~script:loaded ~specs ~dbc ~corpus ())
    with
    | Error reason -> fail reason
    | Ok (map, requirements) -> (
      match
        Trace_run.check_corpus
          ~workers:(max 1 job.Protocol.workers)
          ~obs:cfg.obs
          ~budget:(Csp.Budget.create ~cancel:(Signals.read cfg.cancel) ())
          ~map ~requirements ~path:corpus ()
      with
      | Error reason -> fail reason
      | Ok report ->
        cfg.emit
          (Protocol.result ~v
             ~verdicts:
               ( report.Trace_run.streams,
                 report.Trace_run.streams_accepted,
                 report.Trace_run.streams_rejected )
             ~id:job.Protocol.id ~attempts:1 ~interrupted:false
             ~report:(Trace_run.json_of_report report) ());
        note_done t))

(* An exception that escapes a job fails that job alone: its reason is
   the exception's text, its retry checkpoint is stale state, and the
   daemon goes on serving the queue. *)
let run_job t (job : Protocol.job) =
  try
    match job.Protocol.kind with
    | Protocol.Check -> run_check_job t job
    | Protocol.Trace_check { corpus; specs; dbc } ->
      run_trace_job t job ~corpus ~specs ~dbc
  with e ->
    remove_checkpoint t.cfg job;
    t.cfg.emit
      (Protocol.failed ~v:job.Protocol.version ~id:job.Protocol.id ~attempts:1
         ~reason:(Printexc.to_string e) ());
    note_failed t

let fail_queued t reason =
  Queue.iter
    (fun (j : Protocol.job) ->
      t.cfg.emit
        (Protocol.failed ~v:j.Protocol.version ~id:j.Protocol.id ~attempts:0
           ~reason ());
      note_failed t)
    t.queue;
  Queue.clear t.queue;
  Obs.set t.g_queue 0.

let run_pending t =
  let rec go () =
    if Signals.tripped t.cfg.cancel then begin
      t.draining <- true;
      fail_queued t "daemon interrupted"
    end
    else
      match Queue.take_opt t.queue with
      | None -> ()
      | Some job ->
        Obs.set t.g_queue (float_of_int (Queue.length t.queue));
        run_job t job;
        go ()
  in
  go ()

let drain t =
  t.draining <- true;
  run_pending t;
  t.cfg.emit (Protocol.drained ~done_:t.jobs_done ~failed:t.jobs_failed ())

let request ?v t = function
  | Protocol.Submit job -> submit t job
  | Protocol.Health -> emit_health ?v t
  | Protocol.Drain -> t.draining <- true

(* One reader domain feeds a mutex-protected inbox so the main loop can
   interleave job execution with request ingestion (and notice a drain or
   signal between jobs). The reader blocks in [input_line]; it is never
   joined — process exit reaps it. *)
type inbox = {
  mu : Mutex.t;
  lines : string Queue.t;
  mutable eof : bool;
}

let serve cfg ic =
  let t = create cfg in
  let inbox = { mu = Mutex.create (); lines = Queue.create (); eof = false } in
  let _reader : unit Domain.t =
    Domain.spawn (fun () ->
        let rec loop () =
          match input_line ic with
          | line ->
            Mutex.lock inbox.mu;
            Queue.add line inbox.lines;
            Mutex.unlock inbox.mu;
            loop ()
          | exception End_of_file ->
            Mutex.lock inbox.mu;
            inbox.eof <- true;
            Mutex.unlock inbox.mu
        in
        loop ())
  in
  let pop () =
    Mutex.lock inbox.mu;
    let line = Queue.take_opt inbox.lines in
    let eof = inbox.eof in
    Mutex.unlock inbox.mu;
    (line, eof)
  in
  let rec loop () =
    if Signals.tripped cfg.cancel then begin
      t.draining <- true;
      fail_queued t "daemon interrupted";
      cfg.emit (Protocol.drained ~done_:t.jobs_done ~failed:t.jobs_failed ())
    end
    else
      match pop () with
      | Some line, _ ->
        (match Protocol.request_of_line line with
        | Ok (req, v) -> request ~v t req
        | Error reason -> cfg.emit (Protocol.rejected ~id:None ~reason ()));
        loop ()
      | None, eof -> (
        if eof then t.draining <- true;
        match Queue.take_opt t.queue with
        | Some job ->
          Obs.set t.g_queue (float_of_int (Queue.length t.queue));
          run_job t job;
          loop ()
        | None ->
          if t.draining then
            cfg.emit
              (Protocol.drained ~done_:t.jobs_done ~failed:t.jobs_failed ())
          else begin
            (* idle: nothing queued, input still open *)
            cfg.sleep 0.02;
            loop ()
          end)
  in
  loop ()
