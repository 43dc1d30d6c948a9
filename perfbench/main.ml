(* The benchmark harness: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N]
     main.exe --dump-inputs --seed N
     main.exe --calib-check

   --trace 0 measures the end-to-end metrics with nothing recorded.
   --trace 1 is the separate traced run: a third of the time in [Spans]
   ops (exact allocation counts), the rest alternating untraced and [Full]
   ops (layer times and counts, and the tracing overhead). --ops N runs
   exactly N ops per phase instead of a time budget, for the self-test.
   The last line of stdout is the result object; a wrong answer makes the
   exit code 1.

   --dump-inputs prints a digest of every input a seed generates, and
   --calib-check the calibration kernel's median time after each kind of
   work in {!Calib.after_work}: both for the self-test. *)

let now = Unix.gettimeofday
let workdir = ".perfbench"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [p]% of samples at or
   below it. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

(* The process's peak RSS without the calibration buffer's. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
              (float kb /. 1024.) -. Calib.resident_mb)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let json_metric (name, unit, v) =
  name, Obs.Json.Obj [ "value", Obs.Json.Num v; "unit", Obs.Json.Str unit ]

(* Full precision: comparisons between runs need every digit. *)
let rec json_to_string = function
  | Obs.Json.Num f when not (Float.is_integer f) -> Printf.sprintf "%.17g" f
  | Obs.Json.Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) ->
             Obs.Json.to_string (Obs.Json.Str k) ^ ": " ^ json_to_string v)
           fields)
    ^ "}"
  | j -> Obs.Json.to_string j

let result ~correct ~attempted ~failed metrics =
  json_to_string
    (Obs.Json.Obj
       [
         "correct", Obs.Json.Bool correct;
         "attempted", Obs.Json.Num (float_of_int attempted);
         "failed", Obs.Json.Num (float_of_int failed);
         "metrics", Obs.Json.Obj (List.map json_metric metrics);
       ])

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-32s %14.4f %s\n" name v unit)
    rows

(* Every input a seed produces, digested item by item: the self-test
   compares two processes' output byte for byte. *)
let dump_inputs seed =
  let line what s = Printf.printf "%s %s %d\n" what (Digest.to_hex (Digest.string s)) (String.length s) in
  List.iteri
    (fun i v ->
      line (Printf.sprintf "fig1-ota/%d/dbc" i) (Gen.fig1_dbc v);
      List.iter
        (fun flawed ->
          List.iter
            (fun (node, src) ->
              line (Printf.sprintf "fig1-ota/%d/%b/%s" i flawed node) src)
            (Gen.fig1_sources ~flawed v))
        [ false; true ];
      line (Printf.sprintf "fig1-ota/%d/properties" i) (Gen.fig1_properties v))
    (Gen.fig1_variants ~seed Workloads.Fig1.pool);
  line "ecu-scale/script"
    (Gen.ecu_scale_script ~seed ~n:Workloads.Ecu_scale.n);
  let d =
    Gen.daemon ~seed ~k:Workloads.Daemon.components
      ~jobs:Workloads.Daemon.edits
  in
  line "daemon-edit/cold"
    (Gen.daemon_script d (Array.make Workloads.Daemon.components false));
  line "daemon-edit/edits"
    (String.concat "," (Array.to_list (Array.map string_of_int d.Gen.edits)));
  let path = Filename.concat workdir (Printf.sprintf "dump-%d.ndjson" (Unix.getpid ())) in
  ignore (Workloads.Fleet.generate ~seed ~path);
  let ic = open_in_bin path in
  let corpus =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  line "fleet-trace/corpus" corpus;
  line "fleet-trace/specs" Gen.fleet_specs

type run = {
  ops : int;
  failed : int;
  samples : float list;  (** op seconds, scaled to nominal host speed *)
  raw : float list;  (** op wall seconds *)
  busy : float;  (** scaled seconds of the loop's iterations *)
  kernel : float list;  (** calibration kernel seconds *)
  records : Trace.op list;
}

(* Ops [first..] until the deadline (or [max_ops] of them), each op's mode
   chosen by [mode_of]. The calibration kernel runs between ops; each op's
   time is scaled by the kernel times around it ({!Calib}). *)
let loop inst tr ~first ~deadline ~max_ops ~mode_of =
  let rec go i before acc =
    let n = i - first in
    if (max_ops > 0 && n >= max_ops) || (max_ops = 0 && now () >= deadline)
    then acc
    else begin
      let mode = mode_of i in
      let it0 = now () in
      if tr != Trace.off then Trace.begin_op tr mode;
      let timed = inst.Workloads.op i tr in
      let t0 = now () in
      let after = timed () in
      let dt = now () -. t0 in
      let ok = after () in
      let it = now () -. it0 in
      let next = Calib.sample () in
      let f = Calib.factor ~before ~after:next in
      let records =
        if tr != Trace.off then
          Trace.end_op tr ~id:i ~op_s:dt ~factor:f :: acc.records
        else acc.records
      in
      go (i + 1) next
        {
          ops = acc.ops + 1;
          failed = (if ok then acc.failed else acc.failed + 1);
          samples = (dt *. f) :: acc.samples;
          raw = dt :: acc.raw;
          busy = acc.busy +. (it *. f);
          kernel = next :: acc.kernel;
          records;
        }
    end
  in
  let first_sample = Calib.sample () in
  go first first_sample
    {
      ops = 0;
      failed = 0;
      samples = [];
      raw = [];
      busy = 0.;
      kernel = [ first_sample ];
      records = [];
    }

let mean_metrics per_op records =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace sums k
            (v +. Option.value ~default:0. (Hashtbl.find_opt sums k)))
        (per_op r))
    records;
  let n = float_of_int (max 1 (List.length records)) in
  fun name -> Option.map (fun s -> s /. n) (Hashtbl.find_opt sums name)

let write_ops path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun (r : Trace.op) ->
          let metrics =
            match r.Trace.mode with
            | Trace.Spans -> Layers.of_spans r
            | Trace.Full -> Layers.of_full r
            | Trace.Off -> []
          in
          let exact = List.filter (fun (k, _) -> Layers.exact k) metrics in
          if exact <> [] then
            output_string oc
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    [
                      "op", Obs.Json.Num (float_of_int r.Trace.id);
                      ( "exact",
                        Obs.Json.Obj
                          (List.map (fun (k, v) -> k, Obs.Json.Num v) exact) );
                    ])
              ^ "\n"))
        records)

(* Set-ups per run; [setup_s] is their median. *)
let setup_count = 3

let main ~workload ~seed ~seconds ~traced ~max_ops =
  let w =
    match List.find_opt (fun w -> w.Workloads.name = workload) Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s-seed%d" workload seed in
  let tr =
    if traced then
      Trace.create
        ~obs_path:
          (Filename.concat workdir
             (Printf.sprintf "obs-%s-%d.jsonl" tag (Unix.getpid ())))
    else Trace.off
  in
  (* Set up [setup_count] times, each between two kernel samples; keep only
     the last instance alive. *)
  let setups, inst, setup_checks, setup_failures =
    let rec go k acc prev checks failures =
      if k = 0 then List.rev acc, Option.get prev, checks, failures
      else begin
        Option.iter (fun i -> i.Workloads.cleanup ()) prev;
        let before = Calib.sample () in
        let t0 = now () in
        let inst = w.Workloads.setup ~seed ~workdir tr in
        let dt = now () -. t0 in
        let f = Calib.factor ~before ~after:(Calib.sample ()) in
        go (k - 1) ((dt, f) :: acc) (Some inst)
          (checks + inst.Workloads.setup_checks)
          (failures + inst.Workloads.setup_failures)
      end
    in
    go setup_count [] None 0 0
  in
  let setup_s = List.map (fun (dt, f) -> dt *. f) setups in
  let start = now () in
  let deadline = start +. seconds in
  let runs, metrics =
    if not traced then begin
      let r =
        loop inst tr ~first:0 ~deadline ~max_ops ~mode_of:(fun _ -> Trace.Off)
      in
      let ms = List.map (fun s -> s *. 1e3) r.samples in
      ( [ r ],
        [
          "latency_p50_ms", "ms", median ms;
          "latency_tail_ms", "ms", percentile w.Workloads.tail_pct ms;
          "ops_per_s", "1/s", float_of_int r.ops /. r.busy;
          "peak_rss_mb", "MB", peak_rss_mb ();
          "setup_s", "s", median setup_s;
        ] )
    end
    else begin
      let spans =
        loop inst tr ~first:0 ~deadline:(start +. (seconds /. 3.)) ~max_ops
          ~mode_of:(fun _ -> Trace.Spans)
      in
      let mixed =
        loop inst tr ~first:spans.ops ~deadline ~max_ops:(2 * max_ops)
          ~mode_of:(fun i ->
            if (i - spans.ops) mod 2 = 0 then Trace.Off else Trace.Full)
      in
      let full, off =
        List.partition (fun (r : Trace.op) -> r.mode = Trace.Full) mixed.records
      in
      let op_ms rs =
        median (List.map (fun (r : Trace.op) -> r.op_s *. r.factor) rs)
      in
      let of_full = mean_metrics Layers.of_full full in
      let of_spans = mean_metrics Layers.of_spans spans.records in
      (* set-up layers are scaled like set-up time, by the last set-up's
         kernel samples *)
      let setup_factor = match List.rev setups with (_, f) :: _ -> f | [] -> 1. in
      let value name =
        match name with
        | "trace.overhead_pct" ->
          Some (100. *. ((op_ms full /. op_ms off) -. 1.))
        (* unscaled, so the scaled figures can be checked against them *)
        | "raw.latency_p50_ms" ->
          Some (1e3 *. median (List.map (fun (r : Trace.op) -> r.op_s) off))
        | "calib.kernel_ms" -> Some (1e3 *. median (spans.kernel @ mixed.kernel))
        | _ -> (
          match List.assoc_opt name inst.Workloads.setup_notes with
          | Some v -> Some (v *. setup_factor)
          | None -> (
            match of_spans name with Some v -> Some v | None -> of_full name))
      in
      Trace.write tr (Filename.concat workdir (tag ^ ".spans.jsonl"));
      write_ops
        (Filename.concat workdir (tag ^ ".ops.jsonl"))
        (List.rev_append spans.records (List.rev mixed.records));
      ( [ spans; mixed ],
        List.map
          (fun m ->
            ( m.Layers.name,
              m.Layers.unit,
              Option.value ~default:0. (value m.Layers.name) ))
          Layers.metrics )
    end
  in
  Trace.close tr;
  inst.Workloads.cleanup ();
  let ops = List.fold_left (fun n r -> n + r.ops) 0 runs in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 runs in
  let attempted = ops + setup_checks in
  let failed = failed + setup_failures in
  let correct = failed = 0 in
  let raw = List.concat_map (fun r -> r.raw) runs in
  let kernel = List.concat_map (fun r -> r.kernel) runs in
  print_table
    (Printf.sprintf
       "%s seed %d %s: %d ops (%d failed), tail = p%g\n\
       \  wall: op p50 %.3f ms, set-ups %s s; kernel p50 %.3f ms (nominal \
        %.3f ms)"
       workload seed
       (if traced then "traced" else "untraced")
       ops failed w.Workloads.tail_pct
       (median raw *. 1e3)
       (String.concat " "
          (List.map (fun (dt, _) -> Printf.sprintf "%.3f" dt) setups))
       (median kernel *. 1e3) (Calib.nominal_s *. 1e3))
    metrics;
  print_endline (result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and max_ops = ref 0 in
  let dump = ref false and calib_check = ref false in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S length of the timed run";
      "--trace", Arg.Set_int trace, "0|1 untraced or traced run";
      "--ops", Arg.Set_int max_ops, "N run N ops per phase instead of S seconds";
      "--dump-inputs", Arg.Set dump, " print a digest of every generated input";
      ( "--calib-check",
        Arg.Set calib_check,
        " time the calibration kernel after different kinds of work" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !dump then begin
    (try Unix.mkdir workdir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dump_inputs !seed
  end
  else if !calib_check then
    print_endline
      (json_to_string
         (Obs.Json.Obj
            (List.map
               (fun (work, ts) -> work, Obs.Json.Num (1e3 *. median ts))
               (Calib.after_work ()))))
  else
    main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1) ~max_ops:!max_ops
