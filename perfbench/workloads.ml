(* The four workloads. Each [setup] builds its inputs from the seed, runs
   whatever has to happen before the first timed op (checking every answer
   it sees), and returns an [instance]. [instance.op i tr] prepares op [i]
   untimed and returns the timed thunk; the thunk returns the op's
   after-step, which runs the trace probes and checks the op's answer
   against what the generator built, outside the timed window. *)

type instance = {
  op : int -> Trace.t -> unit -> unit -> bool;
  setup_checks : int;
  setup_failures : int;
  setup_notes : (string * float) list;  (** set-up layer metrics *)
  cleanup : unit -> unit;
}

type t = {
  name : string;
  tail_pct : float;  (** percentile reported as [latency_tail_ms] *)
  setup : seed:int -> workdir:string -> Trace.t -> instance;
}

let now = Unix.gettimeofday

let count_failures checks =
  List.fold_left (fun n ok -> if ok then n else n + 1) 0 checks

(* ---------------------------------------------------------------------- *)
(* fig1-ota *)

module Fig1 = struct
  let pool = 24

  type input = {
    v : Gen.fig1;
    dbc : string;
    fixed : (string * string) list;
    flawed : (string * string) list;
    props : string;
  }

  let input v =
    {
      v;
      dbc = Gen.fig1_dbc v;
      fixed = Gen.fig1_sources ~flawed:false v;
      flawed = Gen.fig1_sources ~flawed:true v;
      props = Gen.fig1_properties v;
    }

  let bus = { Extractor.Extract.default_config with bus_medium = true }

  (* The user path of the paper's Fig. 1, sources to verdicts. *)
  let path tr inp ~flawed =
    let sources = if flawed then inp.flawed else inp.fixed in
    let db, programs =
      Trace.span tr "extractor.parse_sources" (fun () ->
          Extractor.Pipeline.parse_sources ~dbc:inp.dbc sources)
    in
    let diags =
      Trace.span tr "analysis.lint" (fun () ->
          Extractor.Pipeline.lint_programs ~db programs)
    in
    let system =
      Trace.span tr "extractor.build" (fun () ->
          Extractor.Pipeline.build ~config:bus ~db programs)
    in
    let script =
      Trace.span tr "extractor.emit" (fun () ->
          Extractor.Pipeline.emit_script system ^ inp.props)
    in
    let loaded =
      Trace.span tr "cspm.load" (fun () ->
          Cspm.Elaborate.load_string ~obs:(Trace.obs tr) script)
    in
    let outcomes =
      Trace.span tr "cspm.check" (fun () ->
          Cspm.Check.run ~config:(Trace.check_config tr) loaded)
    in
    diags, String.length script, outcomes

  (* CAPL102 (unverified received payload reaches an output) fires on the
     tag-skipping ECU, and only there. *)
  let lint_ok ~flawed diags =
    let hits =
      List.filter (fun d -> d.Analysis.Diag.code = "CAPL102") diags
    in
    if flawed then
      hits <> []
      && List.for_all (fun d -> d.Analysis.Diag.file = Some "ECU") hits
    else hits = []

  (* A TAG counterexample: every update result but the last was granted by
     a validly tagged apply request for its version since the previous
     result; the last, rptUpd.v, was not. *)
  let tag_cex_ok ~secret trace =
    let ints args =
      List.map (function Csp.Value.Int n -> Some n | _ -> None) args
    in
    let rec go granted = function
      | [] -> false
      | Csp.Event.Vis { Csp.Event.chan = "rptUpd"; args } :: rest -> (
        match ints args, rest with
        | [ Some v ], [] -> not (List.mem v granted)
        | [ Some v ], _ -> List.mem v granted && go [] rest
        | _ -> false)
      | Csp.Event.Vis { Csp.Event.chan = "reqApp"; args } :: rest -> (
        match ints args with
        | [ Some v; Some t ] ->
          go (if t = Gen.valid_tag v ~secret then v :: granted else granted)
            rest
        | _ -> false)
      | _ -> false
    in
    go [] trace

  let verdicts_ok ~flawed ~secret outcomes =
    match List.map (fun o -> o.Cspm.Check.result) outcomes with
    | [ Csp.Refine.Holds _; Csp.Refine.Holds _ ] -> not flawed
    | [ Csp.Refine.Holds _; Csp.Refine.Fails cex ] ->
      flawed && tag_cex_ok ~secret cex.Csp.Refine.trace
    | _ -> false

  let run inp tr () =
    let d0, b0, o0 = path tr inp ~flawed:false in
    let d1, b1, o1 = path tr inp ~flawed:true in
    fun () ->
      (* one probe per [parse_sources] call *)
      for _ = 1 to 2 do
        ignore
          (Trace.probe tr "candb.parse" (fun () ->
               Candb.Dbc_parser.parse inp.dbc))
      done;
      Trace.note tr "extractor.script_bytes" (float_of_int (b0 + b1));
      let secret = inp.v.Gen.secret in
      lint_ok ~flawed:false d0
      && lint_ok ~flawed:true d1
      && verdicts_ok ~flawed:false ~secret o0
      && verdicts_ok ~flawed:true ~secret o1

  (* Set-up: generate the pool and run every variant once, untimed. *)
  let setup ~seed ~workdir:_ _tr =
    let inputs =
      Array.of_list (List.map input (Gen.fig1_variants ~seed pool))
    in
    let checks =
      Array.to_list (Array.map (fun inp -> run inp Trace.off () ()) inputs)
    in
    {
      op = (fun i tr -> run inputs.(i mod pool) tr);
      setup_checks = pool;
      setup_failures = count_failures checks;
      setup_notes = [];
      cleanup = ignore;
    }
end

(* ---------------------------------------------------------------------- *)
(* ecu-scale *)

module Ecu_scale = struct
  let n = 8
  let warm_ops = 4

  let run script tr () =
    let loaded =
      Trace.span tr "cspm.load" (fun () ->
          Cspm.Elaborate.load_string ~obs:(Trace.obs tr) script)
    in
    let outcomes =
      Trace.span tr "cspm.check" (fun () ->
          Cspm.Check.run ~config:(Trace.check_config tr) loaded)
    in
    fun () ->
      match outcomes with
      | [ { Cspm.Check.result = Csp.Refine.Holds _; _ } ] -> true
      | _ -> false

  let setup ~seed ~workdir:_ _tr =
    let script = Gen.ecu_scale_script ~seed ~n in
    let checks = List.init warm_ops (fun _ -> run script Trace.off () ()) in
    {
      op = (fun _ tr -> run script tr);
      setup_checks = warm_ops;
      setup_failures = count_failures checks;
      setup_notes = [];
      cleanup = ignore;
    }
end

(* ---------------------------------------------------------------------- *)
(* fleet-trace *)

module Fleet = struct
  let target_bytes = 4_000_000
  let max_streams = 2400
  let flawed_rate = 0.25
  let serial = ref 0

  let ok_exn = function Ok x -> x | Error e -> failwith e

  (* What the corpus file itself says about its streams, read with the
     generic JSON parser, apart from Trace_io, Trace_rv and Tracecheck. *)
  type truth = {
    plans : (string, bool * bool) Hashtbl.t;
        (** stream -> (runs the flawed ECU, its fault plan corrupts) *)
    unauthorised : (string, unit) Hashtbl.t;
        (** streams that transmit an update result [rptUpd.v] with no
            validly tagged [reqApp.v.mac(v)] before it: those SPEC_AUTH
            must reject *)
    granted : (string * int, unit) Hashtbl.t;  (** stream, version *)
  }

  (* One line of the corpus. Frames are decoded by the demo DBC's layout:
     the version in bits 0-2 of byte 0, reqApp's tag in bits 0-2 of byte
     1. Only transmitted frames are observations. *)
  let observe truth stream json =
    let open Obs.Json in
    let num k = Option.bind (member k json) to_float in
    let byte i =
      match member "data" json with
      | Some (List l) -> (
        match List.nth_opt l i with
        | Some (Num b) -> int_of_float b land 7
        | _ -> 0)
      | _ -> 0
    in
    match member "meta" json with
    | Some meta ->
      let flawed = member "flawed" meta = Some (Bool true) in
      let corrupts =
        match Option.bind (member "corrupt" meta) to_float with
        | Some p -> p > 0.
        | None -> false
      in
      Hashtbl.replace truth.plans stream (flawed, corrupts)
    | None -> (
      if member "d" json = Some (Str "tx") then
        match num "id" with
        | Some 258. ->
          let v = byte 0 in
          if byte 1 = Gen.fleet_mac v then
            Hashtbl.replace truth.granted (stream, v) ()
        | Some 514. ->
          if not (Hashtbl.mem truth.granted (stream, byte 0)) then
            Hashtbl.replace truth.unauthorised stream ()
        | _ -> ())

  (* Fault plans differ by seed, and with them corpus size: 2000 streams
     came to 3.6-4.15 MB over seeds 1-10, and the op's cost follows the
     size. So the corpus is cut per seed after the first streams whose
     lines reach [target_bytes]. Streams are written one after another, the
     header carries no stream count, and adding streams never changes
     earlier ones, so the cut file is the corpus [Ota.Corpus.generate]
     writes for that many streams. Returns the stream count, the truth of
     the streams kept, and the seconds [Ota.Corpus.generate] took. *)
  let generate ~seed ~path =
    let t0 = now () in
    ignore
      (Ota.Corpus.generate ~seed ~streams:max_streams ~flawed_rate ~path ());
    let corpus_s = now () -. t0 in
    let truth =
      {
        plans = Hashtbl.create max_streams;
        unauthorised = Hashtbl.create 64;
        granted = Hashtbl.create max_streams;
      }
    in
    let ic = open_in_bin path in
    let size, streams =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan bytes seen last =
            match input_line ic with
            | exception End_of_file -> bytes, seen
            | line -> (
              let next = bytes + String.length line + 1 in
              let json = Result.to_option (Obs.Json.parse line) in
              match
                Option.bind (Option.bind json (Obs.Json.member "s"))
                  Obs.Json.to_str
              with
              | Some stream when stream <> last && next >= target_bytes ->
                bytes, seen
              | Some stream ->
                observe truth stream (Option.get json);
                scan next (if stream <> last then seen + 1 else seen) stream
              | None -> scan next seen last)
          in
          scan 0 0 "")
    in
    Unix.truncate path size;
    streams, truth, corpus_s

  (* SPEC_AUTH rejects exactly the unauthorised streams, of which there is
     at least one, and each runs the flawed ECU under a plan that corrupts
     (so no fixed-firmware stream is ever rejected). SPEC_ORDER and
     SPEC_WELLFORMED reject nothing. *)
  let report_ok ~streams truth (r : Serve.Trace_run.report) =
    let unauthorised =
      List.sort compare (List.of_seq (Hashtbl.to_seq_keys truth.unauthorised))
    in
    r.Serve.Trace_run.malformed = 0
    && r.Serve.Trace_run.streams = streams
    && unauthorised <> []
    && List.for_all
         (fun s -> Hashtbl.find_opt truth.plans s = Some (true, true))
         unauthorised
    && List.for_all
         (fun (q : Serve.Trace_run.requirement_report) ->
           q.corrupt = 0
           &&
           match q.name with
           | "SPEC_AUTH" ->
             q.rejected = List.length unauthorised
             && List.sort compare
                  (List.map
                     (fun (s : Serve.Trace_run.rejection) -> s.stream)
                     q.samples)
                = unauthorised
           | _ -> q.rejected = 0)
         r.Serve.Trace_run.requirements
    && List.length r.Serve.Trace_run.requirements
       = List.length Gen.fleet_requirements

  let render r =
    Obs.Json.to_string (Serve.Trace_run.json_of_report ~timing:false r)

  (* Inputs of the three isolated probe passes, built once: the parsed
     entries and their mapped labels, in file order. *)
  type probe_inputs = {
    entries : Canbus.Trace_log.entry array;
    labels : (int * Csp.Event.label) array;  (** stream index, label *)
    nstreams : int;
  }

  let probe_inputs ~map path =
    let ids = Hashtbl.create max_streams in
    let index s =
      match Hashtbl.find_opt ids s with
      | Some i -> i
      | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids s i;
        i
    in
    let entries, labels =
      fst
        (ok_exn
           (Serve.Trace_io.fold ~path ~init:([], [])
              (fun (es, ls) ~line_no:_ line ->
                match line with
                | Serve.Trace_io.Entry { stream; entry } ->
                  let i = index stream in
                  ( entry :: es,
                    match map entry with
                    | Some l -> (i, l) :: ls
                    | None -> ls )
                | _ -> es, ls)))
    in
    {
      entries = Array.of_list (List.rev entries);
      labels = Array.of_list (List.rev labels);
      nstreams = Hashtbl.length ids;
    }

  let step_pass requirements p =
    let checkers = Array.of_list (List.map snd requirements) in
    let cursors =
      Array.init p.nstreams (fun _ -> Array.map Csp.Tracecheck.start checkers)
    in
    Array.iter
      (fun (s, label) ->
        let cs = cursors.(s) in
        Array.iteri
          (fun r c ->
            if Csp.Tracecheck.verdict c = Csp.Tracecheck.Accepted then
              cs.(r) <- Csp.Tracecheck.step checkers.(r) c label)
          cs)
      p.labels

  let setup ~seed ~workdir tr =
    incr serial;
    let path =
      Filename.concat workdir
        (Printf.sprintf "corpus-%d-%d.ndjson" (Unix.getpid ()) !serial)
    in
    let streams, truth, corpus_s = generate ~seed ~path in
    let t1 = now () in
    let map, requirements =
      ok_exn
        (Serve.Trace_run.prepare
           ~script:(Cspm.Elaborate.load_string Gen.fleet_specs)
           ~specs:Gen.fleet_requirements ~dbc:None ~corpus:path ())
    in
    let prepare_ms = (now () -. t1) *. 1e3 in
    let bytes = float_of_int (Unix.stat path).Unix.st_size in
    let check () =
      ok_exn
        (Serve.Trace_run.check_corpus ~workers:1 ~sample_limit:streams ~map
           ~requirements ~path ())
    in
    let reference = check () in
    let expected = render reference in
    let probes =
      if tr == Trace.off then None else Some (probe_inputs ~map path)
    in
    let run tr () =
      let r = Trace.span tr "serve.trace_run" check in
      fun () ->
        Option.iter
          (fun p ->
            ignore
              (Trace.probe tr "serve.trace_io" (fun () ->
                   Serve.Trace_io.fold ~path ~init:0 (fun n ~line_no:_ _ ->
                       n + 1)));
            ignore
              (Trace.probe tr "extractor.trace_rv" (fun () ->
                   Array.iter (fun e -> ignore (map e)) p.entries));
            ignore
              (Trace.probe tr "csp.tracecheck" (fun () ->
                   step_pass requirements p)))
          probes;
        Trace.note tr "trace.entries" (float_of_int r.Serve.Trace_run.entries);
        Trace.note tr "trace.events" (float_of_int r.Serve.Trace_run.events);
        Trace.note tr "trace.bytes" bytes;
        render r = expected
    in
    {
      op = (fun _ tr -> run tr);
      setup_checks = 1;
      setup_failures = (if report_ok ~streams truth reference then 0 else 1);
      setup_notes =
        [ "ota.corpus_s", corpus_s; "serve.trace_run.prepare_ms", prepare_ms ];
      cleanup = (fun () -> try Sys.remove path with Sys_error _ -> ());
    }
end

(* ---------------------------------------------------------------------- *)
(* daemon-edit *)

module Daemon = struct
  let components = 128
  let edits = 4096

  (* One submit through the wire codec into the runner. *)
  let submit tr runner line =
    match
      Trace.span tr "serve.protocol" (fun () ->
          Serve.Protocol.request_of_line line)
    with
    | Error _ -> false
    | Ok (req, v) ->
      Trace.span tr "serve.runner" (fun () -> Serve.Runner.request ~v runner req);
      Trace.span tr "serve.runner" (fun () -> Serve.Runner.run_pending runner);
      true

  let line id script =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           "op", Obs.Json.Str "submit";
           "id", Obs.Json.Str id;
           "script", Obs.Json.Str script;
         ])

  (* The job's events: accepted, started, then a result whose every
     assertion passes — both variants of every component hold. *)
  let events_ok ~id events =
    let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
    match List.rev events with
    | [ a; s; r ] ->
      str "event" a = Some "accepted"
      && str "event" s = Some "started"
      && str "event" r = Some "result"
      && str "id" r = Some id
      && Obs.Json.member "interrupted" r = None
      && (match
            Option.bind (Obs.Json.member "report" r)
              (Obs.Json.member "assertions")
          with
         | Some (Obs.Json.List l) ->
           List.length l = components
           && List.for_all (fun o -> str "verdict" o = Some "pass") l
         | _ -> false)
    | _ -> false

  (* The runner loads the script and derives cache keys out of the
     benchmark's reach; probes time the same steps on the same script. *)
  let probe_load_and_keys tr script =
    let ( let* ) = Option.bind in
    let* ast =
      Trace.probe tr "cspm.parse" (fun () -> Cspm.Parser.script script)
    in
    let* loaded =
      Trace.probe tr "cspm.elaborate" (fun () -> Cspm.Elaborate.load ast)
    in
    let terms =
      List.filter_map
        (fun (a, _) ->
          match a with
          | Cspm.Ast.A_refines (s, _, i) ->
            Some
              ( Cspm.Elaborate.proc_of_term loaded s,
                Cspm.Elaborate.proc_of_term loaded i )
          | _ -> None)
        loaded.Cspm.Elaborate.assertions
    in
    let defs = loaded.Cspm.Elaborate.defs in
    let max_states = Csp.Check_config.default.max_states in
    Trace.probe tr "csp.cache.key" (fun () ->
        List.iter
          (fun (s, i) ->
            ignore (Csp.Cache.spec_key ~max_states defs s);
            ignore (Csp.Cache.impl_key ~max_states defs i))
          terms)

  let setup ~seed ~workdir:_ tr =
    let d = Gen.daemon ~seed ~k:components ~jobs:edits in
    let cache = Csp.Cache.create () in
    let events = ref [] in
    let runner obs =
      Serve.Runner.create
        {
          (Serve.Runner.default_config ~emit:(fun e -> events := e :: !events))
          with
          Serve.Runner.cache = Some cache;
          obs;
        }
    in
    let plain = runner Obs.silent in
    (* Full-mode ops go through a second runner, on the same cache, whose
       handle records the engine's spans. *)
    let traced = if tr == Trace.off then plain else runner (Trace.full_obs tr) in
    let variants = Array.make components false in
    let job ~id tr =
      let script = Gen.daemon_script d variants in
      let line = line id script in
      let runner = if Trace.mode tr = Trace.Full then traced else plain in
      let before = Csp.Cache.stats cache in
      events := [];
      fun () ->
        let sent = submit tr runner line in
        fun () ->
          let after = Csp.Cache.stats cache in
          ignore (probe_load_and_keys tr script);
          Trace.note tr "csp.cache.hits"
            (float_of_int (after.Csp.Cache.hits - before.Csp.Cache.hits));
          Trace.note tr "csp.cache.misses"
            (float_of_int (after.Csp.Cache.misses - before.Csp.Cache.misses));
          Trace.note tr "csp.cache.resident_states"
            (float_of_int after.Csp.Cache.resident_states);
          sent && events_ok ~id !events
    in
    let untimed ~id = job ~id Trace.off () () in
    let cold = untimed ~id:"cold" in
    Array.fill variants 0 components true;
    let flipped = untimed ~id:"flipped" in
    let op i tr =
      let c = d.Gen.edits.(i mod edits) in
      variants.(c) <- not variants.(c);
      job ~id:(Printf.sprintf "j%d" i) tr
    in
    {
      op;
      setup_checks = 2;
      setup_failures = count_failures [ cold; flipped ];
      setup_notes = [];
      cleanup = ignore;
    }
end

let all =
  [
    { name = "fig1-ota"; tail_pct = 97.; setup = Fig1.setup };
    { name = "ecu-scale"; tail_pct = 90.; setup = Ecu_scale.setup };
    { name = "fleet-trace"; tail_pct = 85.; setup = Fleet.setup };
    { name = "daemon-edit"; tail_pct = 90.; setup = Daemon.setup };
  ]
