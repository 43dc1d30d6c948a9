(* The streaming trace-containment engine and the corpus pipeline built
   on it: cursor semantics (skip / tick / latch), an exhaustive qcheck
   agreement property against the denotational trace semantics, the
   can-trace/1 codec round-trip, fixed-seed corpus determinism,
   malformed-line containment, and verdict identity across 1/2/4 worker
   domains for both the raw engine and the corpus driver. *)

open Csp
open Helpers

let alphabet = [ "a"; "b"; "c"; "done_" ]

let compile_exn ?(alphabet = alphabet) defs p =
  match Tracecheck.compile ~alphabet defs p with
  | Ok t -> t
  | Error msg -> Alcotest.failf "Tracecheck.compile: %s" msg

let show_verdict = function
  | Tracecheck.Accepted -> "accepted"
  | Tracecheck.Rejected { position; offending; expected } ->
    Format.asprintf "rejected@%d %a {%s}" position Event.pp_label offending
      (String.concat ","
         (List.map (Format.asprintf "%a" Event.pp_label) expected))

let verdict_t = Alcotest.testable (Fmt.of_to_string show_verdict) ( = )

(* ------------------------------------------------------------------ *)
(* Cursor semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_accept_reject () =
  let defs = make_defs () in
  let spec = send "a" 0 (send "b" 1 Proc.stop) in
  let t = compile_exn defs spec in
  let check tr = Tracecheck.check_trace t tr in
  Alcotest.check verdict_t "empty" Tracecheck.Accepted (check []);
  Alcotest.check verdict_t "prefix" Tracecheck.Accepted (check [ vis "a" 0 ]);
  Alcotest.check verdict_t "full" Tracecheck.Accepted
    (check [ vis "a" 0; vis "b" 1 ]);
  (match check [ vis "b" 1 ] with
  | Tracecheck.Rejected { position = 0; offending; expected = [ e ] } ->
    Alcotest.check label "offending" (vis "b" 1) offending;
    Alcotest.check label "expected" (vis "a" 0) e
  | v -> Alcotest.failf "expected rejection at 0, got %s" (show_verdict v));
  (match check [ vis "a" 0; vis "b" 0 ] with
  | Tracecheck.Rejected { position = 1; _ } -> ()
  | v -> Alcotest.failf "expected rejection at 1, got %s" (show_verdict v))

let test_latch () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.stop in
  let t = compile_exn defs spec in
  (* once rejected, later (even valid-looking) labels change nothing *)
  match Tracecheck.check_trace t [ vis "b" 1; vis "a" 0; vis "a" 0 ] with
  | Tracecheck.Rejected { position = 0; _ } -> ()
  | v -> Alcotest.failf "verdict did not latch: %s" (show_verdict v)

let test_tick () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.skip in
  let t = compile_exn defs spec in
  Alcotest.check verdict_t "terminates" Tracecheck.Accepted
    (Tracecheck.check_trace t [ vis "a" 0; Event.Tick ]);
  (match Tracecheck.check_trace t [ Event.Tick ] with
  | Tracecheck.Rejected { position = 0; _ } -> ()
  | v -> Alcotest.failf "early tick accepted: %s" (show_verdict v));
  match Tracecheck.check_trace t [ vis "a" 0; Event.Tick; vis "a" 0 ] with
  | Tracecheck.Rejected { position = 2; _ } -> ()
  | v -> Alcotest.failf "label after tick accepted: %s" (show_verdict v)

let test_out_of_alphabet_skipped () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.stop in
  let t = compile_exn ~alphabet:[ "a" ] defs spec in
  let c = Tracecheck.start t in
  let c = List.fold_left (Tracecheck.step t) c
      [ vis "c" 0; vis "a" 0; vis "b" 2 ]
  in
  Alcotest.check verdict_t "b and c skipped" Tracecheck.Accepted
    (Tracecheck.verdict c);
  Alcotest.(check int) "consumed" 3 (Tracecheck.consumed c);
  Alcotest.(check int) "skipped" 2 (Tracecheck.skipped c)

(* ------------------------------------------------------------------ *)
(* Agreement with the denotational trace semantics                     *)
(* ------------------------------------------------------------------ *)

(* Every candidate label over the standard environment. *)
let candidate_labels =
  [ vis "a" 0; vis "a" 1; vis "a" 2; vis "b" 0; vis "b" 1; vis "b" 2;
    vis "c" 0; vis "c" 1; Event.Vis (ev0 "done_"); Event.Tick ]

(* All label sequences of length <= 3 (1111 of them). *)
let candidate_traces =
  let rec extend traces n =
    if n = 0 then traces
    else
      extend
        (List.concat_map
           (fun tr -> List.map (fun l -> l :: tr) candidate_labels)
           traces
         @ traces)
        (n - 1)
  in
  List.map List.rev (extend [ [] ] 3)

let trace_equal t1 t2 =
  List.length t1 = List.length t2 && List.for_all2 Event.equal_label t1 t2

(* [check_trace] accepts exactly the traces of the denotational
   semantics: for random processes, exhaustively over every candidate
   trace of length <= 3. This is the containment engine's version of
   the operational-vs-denotational differential test. *)
let agreement_test =
  QCheck.Test.make ~count:80 ~name:"check_trace agrees with Traces.of_proc"
    arb_proc (fun p ->
      let defs = make_defs () in
      match Traces.of_proc ~depth:4 defs p with
      | exception Traces.Unguarded _ -> QCheck.assume_fail ()
      | trace_set ->
        let t = compile_exn defs p in
        List.for_all
          (fun tr ->
            let accepted = Tracecheck.check_trace t tr = Tracecheck.Accepted in
            let member = List.exists (trace_equal tr) trace_set in
            if accepted <> member then
              QCheck.Test.fail_reportf
                "disagree on [%s] for %s: checker=%b oracle=%b"
                (String.concat ", "
                   (List.map (Format.asprintf "%a" Event.pp_label) tr))
                (Proc.to_string p) accepted member
            else true)
          candidate_traces)

(* ------------------------------------------------------------------ *)
(* can-trace/1 codec round-trip                                        *)
(* ------------------------------------------------------------------ *)

let gen_entry : Canbus.Trace_log.entry QCheck.Gen.t =
  let open QCheck.Gen in
  let* time = int_range 0 1_000_000 in
  let* node = oneofl [ "VMG"; "ECU"; "GW" ] in
  let* direction =
    oneofl
      [ Canbus.Trace_log.Tx; Canbus.Trace_log.Rx "ECU";
        Canbus.Trace_log.Fault "corrupt"; Canbus.Trace_log.Fault "drop" ]
  in
  let* extended = bool in
  let* id = int_range 0 (if extended then 0x1FFFFFFF else 0x7FF) in
  let* data = list_size (int_range 0 8) (int_range 0 255) in
  return
    {
      Canbus.Trace_log.time;
      node;
      direction;
      frame = Canbus.Frame.make ~extended ~id data;
    }

let codec_roundtrip_test =
  QCheck.Test.make ~count:300 ~name:"can-trace/1 entry codec round-trips"
    (QCheck.make gen_entry) (fun entry ->
      let line = Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry) in
      match Obs.Json.parse line with
      | Error msg -> QCheck.Test.fail_reportf "emitted unparseable %s: %s"
                       line msg
      | Ok json ->
        (match Canbus.Trace_log.entry_of_json json with
        | Error msg ->
          QCheck.Test.fail_reportf "decode of %s failed: %s" line msg
        | Ok entry' ->
          let line' =
            Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry')
          in
          if line <> line' then
            QCheck.Test.fail_reportf "not byte-identical: %s vs %s" line line'
          else true))

let test_entry_of_json_rejects () =
  let bad s =
    match Obs.Json.parse s with
    | Error _ -> ()
    | Ok json ->
      (match Canbus.Trace_log.entry_of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid entry %s" s)
  in
  bad {|{"t":-1,"n":"VMG","d":"tx","id":257,"data":[1]}|};
  bad {|{"t":0,"n":"VMG","d":"tx","id":4096,"data":[1]}|};
  bad {|{"t":0,"n":"VMG","d":"tx","id":257,"data":[256]}|};
  bad {|{"t":0,"n":"VMG","d":"sideways","id":257,"data":[]}|};
  bad {|{"n":"VMG","d":"tx","id":257,"data":[]}|}

(* ------------------------------------------------------------------ *)
(* Corpus generator determinism                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_tmp f =
  let path = Filename.temp_file "tracecheck_test" ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_corpus_deterministic () =
  with_tmp @@ fun p1 ->
  with_tmp @@ fun p2 ->
  let gen ~seed path =
    Ota.Corpus.generate ~seed ~streams:6 ~until_ms:100 ~flawed_rate:0.5 ~path
      ()
  in
  let s1 = gen ~seed:7 p1 in
  let s2 = gen ~seed:7 p2 in
  Alcotest.(check int) "streams" 6 s1.Ota.Corpus.streams;
  Alcotest.(check int) "streams again" 6 s2.Ota.Corpus.streams;
  Alcotest.(check bool) "same seed, byte-identical" true
    (read_file p1 = read_file p2);
  let _ = gen ~seed:8 p2 in
  Alcotest.(check bool) "different seed, different bytes" false
    (read_file p1 = read_file p2)

(* ------------------------------------------------------------------ *)
(* Malformed lines: contained, never raised                            *)
(* ------------------------------------------------------------------ *)

let test_parse_line () =
  (match Serve.Trace_io.parse_line "not json at all" with
  | Serve.Trace_io.Malformed { stream = None; _ } -> ()
  | _ -> Alcotest.fail "garbage line not Malformed{stream=None}");
  (match Serve.Trace_io.parse_line {|{"s":"s1","t":"soon"}|} with
  | Serve.Trace_io.Malformed { stream = Some "s1"; _ } -> ()
  | _ -> Alcotest.fail "bad entry did not recover its stream");
  (match Serve.Trace_io.parse_line {|{"s":"s1","meta":{"drop":0.5}}|} with
  | Serve.Trace_io.Meta { stream = "s1"; _ } -> ()
  | _ -> Alcotest.fail "meta line not recognised");
  match
    Serve.Trace_io.parse_line
      {|{"s":"s1","t":10,"n":"VMG","d":"tx","id":257,"data":[1]}|}
  with
  | Serve.Trace_io.Entry { stream = "s1"; entry } ->
    Alcotest.(check int) "id" 257 entry.Canbus.Trace_log.frame.Canbus.Frame.id
  | _ -> Alcotest.fail "entry line not recognised"

(* Integers from 2^53 up are not integers to the codec. The first three
   lines used to decode with a 0 in place of the huge number; 2^53 is
   the first value that 2^53 + 1 also parses to. *)
let test_out_of_range_integers () =
  List.iter
    (fun (line, want) ->
      match Serve.Trace_io.parse_line line with
      | Serve.Trace_io.Malformed { stream = Some "s1"; reason } ->
        Alcotest.(check string) line want reason
      | _ -> Alcotest.failf "accepted %s" line)
    [
      ( {|{"s":"s1","t":104,"n":"VMG","d":"tx","id":1e300,"data":[1]}|},
        {|missing or ill-typed field "id"|} );
      ( {|{"s":"s1","t":1e19,"n":"VMG","d":"tx","id":257,"data":[1]}|},
        {|missing or ill-typed field "t"|} );
      ( {|{"s":"s1","t":104,"n":"VMG","d":"tx","id":257,"data":[1e19]}|},
        "non-integer data byte" );
      ( {|{"s":"s1","t":9007199254740992,"n":"VMG","d":"tx","id":1,"data":[]}|},
        {|missing or ill-typed field "t"|} );
    ]

(* ------------------------------------------------------------------ *)
(* Differential mutation property: the reader-based parser and line    *)
(* decoder against the tree-building reference                         *)
(* ------------------------------------------------------------------ *)

(* Floats compare by bits, so -0 and 0 differ. *)
let rec json_equal a b =
  let open Obs.Json in
  match a, b with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys ->
    List.compare_lengths xs ys = 0 && List.for_all2 json_equal xs ys
  | Obj xs, Obj ys ->
    List.compare_lengths xs ys = 0
    && List.for_all2
         (fun (k, x) (k', y) -> String.equal k k' && json_equal x y)
         xs ys
  | _ -> a = b

let line_equal a b =
  match a, b with
  | Serve.Trace_io.Meta { stream; meta }, Serve.Trace_io.Meta m ->
    String.equal stream m.stream && json_equal meta m.meta
  | _ -> a = b

let show_line = function
  | Serve.Trace_io.Meta { stream; meta } ->
    Printf.sprintf "Meta %s %s" stream (Obs.Json.to_string meta)
  | Serve.Trace_io.Entry { stream; entry } ->
    Printf.sprintf "Entry %s %s" stream
      (Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry))
  | Serve.Trace_io.Malformed { stream; reason } ->
    Printf.sprintf "Malformed %s %S"
      (Option.value ~default:"-" stream)
      reason

(* Reordered, duplicate and unknown keys, whitespace, escapes, numbers
   in every spelling the grammar admits (and some it does not), and
   lines that are not objects. *)
let edge_lines =
  [
    {|{"s":"s1","t":10,"n":"VMG","d":"tx","id":257,"data":[1,2]}|};
    {|{"data":[1],"id":257,"d":"rx:ECU","n":"VMG","t":10,"s":"s1"}|};
    {|{"s":"s1","s":"s2","t":1,"t":"x","n":"A","d":"tx","id":1,"id":2,"data":[1],"data":"x"}|};
    {|{"s":5,"s":"s1","t":1,"n":"A","d":"tx","id":1,"data":[]}|};
    {|{"s":"s1","meta":null,"meta":{"a":1}}|};
    {|{"s":"s1","x":[1,{"y":null}],"t":1,"n":"N","d":"fault:drop","id":3,"ext":true,"data":[],"z":"w"}|};
    " { \"s\" : \"s1\" , \"t\" : 10 ,\t\"n\":\"VMG\",\"d\":\"tx\",\"id\":257,\"data\":[ 1 , 2 ] } \r";
    {|{"s":"s1","t":1,"n":"V\"M\\G\/","d":"rx:é中","id":1,"data":[]}|};
    {|{"s":"s1","t":1.5e2,"n":"V","d":"tx","id":2.57E2,"data":[1e0,2.0,+3,.5]}|};
    {|{"s":"s1","t":-0,"n":"V","d":"tx","id":-0,"data":[-0,-00]}|};
    {|{"s":"s1","t":1234567890123456,"n":"V","d":"tx","id":12345678901234567890,"data":[0000000000000001]}|};
    {|{"s":"s1","t":9007199254740991,"n":"V","d":"tx","id":9007199254740993,"data":[]}|};
    {|{"s":"s1","t":999999999999999,"n":"V","d":"tx","id":-999999999999999,"data":[]}|};
    {|{"s":"s1","t":1e19,"n":"V","d":"tx","id":1e300,"data":[1e19]}|};
    {|{"s":"s1","t":1,"n":"V","d":"tx","ext":1,"id":4096,"data":[256]}|};
    {|{"s":"s1","t":1,"n":"V","d":"tx","ext":true,"ext":false,"id":536870911,"data":[1,2,3,4,5,6,7,8,9]}|};
    {|{"s":"s1","t":-5,"n":"V","d":"sideways","id":-1,"data":[1]}|};
    {|{"s":"s1","meta":{"drop":0.12,"babble":true,"flawed":false,"n":-0,"x":1e400}}|};
    {|{"s":"s1","t":5.,"n":"V","d":"tx","id":1e,"data":[]}|};
    {|{"s":"s1","t":--1,"n":"V","d":"tx","id":0x10,"data":[]}|};
    {|{"s":"s1","meta":tru}|};
    {|{"s":"s1","meta":nulll}|};
    {|{"s":"\u12_4","t":"\u-123","n":"\u00"}|};
    {|{"s":"s1","t":1,"n":"V","d":"tx","id":1,"data":[1,]}|};
    {|{"s":"s1",}|};
    {|{"s" "s1"}|};
    {|[1,2]|};
    {|"s"|};
    "42";
    "null";
    "true";
    "";
    "   ";
    {|{}|};
    {|{"s":"s1"} x|};
    {|[[[[{"s":[{"t":{}}]}]]]]|};
  ]

let corpus_lines =
  lazy
    (with_tmp (fun path ->
         ignore
           (Ota.Corpus.generate ~seed:3 ~streams:4 ~until_ms:100
              ~flawed_rate:0.5 ~path ());
         String.split_on_char '\n' (read_file path)
         |> List.filter (fun l -> l <> "")))

let pool = lazy (Array.of_list (Lazy.force corpus_lines @ edge_lines))

let gen_mutated_line =
  let open QCheck.Gen in
  let* base = map (fun () -> Lazy.force pool) unit >>= oneofa in
  let* rounds =
    frequency [ (1, return 0); (5, return 1); (3, return 2); (1, return 3) ]
  in
  let rec go k s =
    if k = 0 then return s else Helpers.mutate ~pool s >>= go (k - 1)
  in
  go rounds base

let differential_test =
  QCheck.Test.make ~count:100_000
    ~name:"reader parser and line decoder match the reference under mutation"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_line)
    (fun line ->
      (match Obs.Json.parse line, Json_reference.parse line with
       | Ok a, Ok b when json_equal a b -> ()
       | Error a, Error b when String.equal a b -> ()
       | got, want ->
         let show = function
           | Ok j -> "Ok " ^ Obs.Json.to_string j
           | Error e -> "Error " ^ e
         in
         QCheck.Test.fail_reportf "parse: %s, reference: %s" (show got)
           (show want));
      let got = Serve.Trace_io.parse_line line in
      let want = Json_reference.parse_line line in
      line_equal got want
      || QCheck.Test.fail_reportf "parse_line: %s, reference: %s"
           (show_line got) (show_line want))

(* A hand-built two-stream corpus with one recoverable and one
   unrecoverable corrupt line: the bad stream is poisoned, the good one
   still checked, nothing raises. *)
let test_corrupt_stream_contained () =
  with_tmp @@ fun path ->
  let entry time id =
    {
      Canbus.Trace_log.time;
      node = "VMG";
      direction = Canbus.Trace_log.Tx;
      frame = Canbus.Frame.make ~id [ 1 ];
    }
  in
  Serve.Trace_io.with_writer ~path ~header:Serve.Trace_io.empty_header
    (fun w ->
      Serve.Trace_io.write_entry w ~stream:"good" (entry 10 0);
      Serve.Trace_io.write_entry w ~stream:"bad" (entry 20 1);
      Serve.Trace_io.write_entry w ~stream:"good" (entry 30 2));
  (* append one corrupt line per failure mode, outside the atomic writer *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"s\":\"bad\",\"t\":\"not-a-time\"}\n";
  output_string oc "utter garbage\n";
  close_out oc;
  let defs = make_defs () in
  let spec =
    Proc.prefix_items
      ( "a",
        [ Proc.In ("x", None) ],
        Proc.prefix_items ("a", [ Proc.In ("y", None) ], Proc.stop) )
  in
  let t = compile_exn defs spec in
  let map (e : Canbus.Trace_log.entry) =
    match e.direction with
    | Canbus.Trace_log.Tx -> Some (vis "a" (e.frame.Canbus.Frame.id mod 3))
    | _ -> None
  in
  match
    Serve.Trace_run.check_corpus ~map ~requirements:[ ("SPEC", t) ] ~path ()
  with
  | Error msg -> Alcotest.failf "check_corpus errored: %s" msg
  | Ok report ->
    Alcotest.(check int) "streams" 2 report.Serve.Trace_run.streams;
    Alcotest.(check int) "malformed lines" 2 report.Serve.Trace_run.malformed;
    Alcotest.(check bool) "not passed" false (Serve.Trace_run.passed report);
    (match report.Serve.Trace_run.requirements with
    | [ r ] ->
      Alcotest.(check int) "accepted" 1 r.Serve.Trace_run.accepted;
      Alcotest.(check int) "corrupt" 1 r.Serve.Trace_run.corrupt
    | rs -> Alcotest.failf "expected 1 requirement, got %d" (List.length rs))

(* Rejected streams are attributed to the fault kinds their meta lines
   declared; a stream without a meta (or with an all-zero one) lands in
   the "none" bucket, and a meta line alone never makes a stream exist. *)
let test_rejection_attribution () =
  with_tmp @@ fun path ->
  let entry time id =
    {
      Canbus.Trace_log.time;
      node = "VMG";
      direction = Canbus.Trace_log.Tx;
      frame = Canbus.Frame.make ~id [ 1 ];
    }
  in
  let meta fields = Obs.Json.Obj fields in
  Serve.Trace_io.with_writer ~path ~header:Serve.Trace_io.empty_header
    (fun w ->
      Serve.Trace_io.write_meta w ~stream:"bad1"
        (meta
           [ "drop", Obs.Json.Num 0.2; "corrupt", Obs.Json.Num 0.;
             "babble", Obs.Json.Bool true ]);
      Serve.Trace_io.write_meta w ~stream:"ghost"
        (meta [ "drop", Obs.Json.Num 0.9 ]);
      (* "ok" stays within the spec's two events; the others overrun *)
      Serve.Trace_io.write_entry w ~stream:"ok" (entry 10 0);
      List.iter
        (fun t ->
          Serve.Trace_io.write_entry w ~stream:"bad1" (entry t 1);
          Serve.Trace_io.write_entry w ~stream:"bad2" (entry t 2))
        [ 20; 30; 40 ])
  ;
  let defs = make_defs () in
  let spec =
    Proc.prefix_items
      ( "a",
        [ Proc.In ("x", None) ],
        Proc.prefix_items ("a", [ Proc.In ("y", None) ], Proc.stop) )
  in
  let t = compile_exn defs spec in
  let map (e : Canbus.Trace_log.entry) =
    match e.direction with
    | Canbus.Trace_log.Tx -> Some (vis "a" (e.frame.Canbus.Frame.id mod 3))
    | _ -> None
  in
  match
    Serve.Trace_run.check_corpus ~map ~requirements:[ ("SPEC", t) ] ~path ()
  with
  | Error msg -> Alcotest.failf "check_corpus errored: %s" msg
  | Ok report ->
    Alcotest.(check int)
      "meta alone creates no stream" 3 report.Serve.Trace_run.streams;
    Alcotest.(check int)
      "two rejected" 2 report.Serve.Trace_run.streams_rejected;
    Alcotest.(check (list (pair string int)))
      "attribution buckets"
      [ "babble", 1; "drop", 1; "none", 1 ]
      report.Serve.Trace_run.rejected_by_fault;
    (* the JSON document carries the same buckets, additively *)
    (match
       Obs.Json.member "rejected_by_fault"
         (Serve.Trace_run.json_of_report ~timing:false report)
     with
     | Some (Obs.Json.Obj fields) ->
       Alcotest.(check (list string))
         "json keys" [ "babble"; "drop"; "none" ] (List.map fst fields)
     | _ -> Alcotest.fail "report JSON lacks rejected_by_fault object")

(* ------------------------------------------------------------------ *)
(* Corpus driver: verdicts identical at any worker count               *)
(* ------------------------------------------------------------------ *)

let ota_specs =
  "channel reqSw : {0..3}\n\
   channel rptSw : {0..7}\n\
   channel reqApp : {0..7}.{0..7}\n\
   channel rptUpd : {0..7}\n\
   secret = 5\n\
   mac(v) = (v + secret) % 8\n\
   ANY = reqSw?p -> ANY [] rptSw?v -> ANY [] reqApp?v?t -> ANY\n\
   \      [] rptUpd?v -> ANY\n\
   SPEC_ORDER = reqSw?p -> ANY\n\
   pow2(n) = if n == 0 then 1 else 2 * pow2(n - 1)\n\
   bit(m, v) = (m / pow2(v)) % 2\n\
   grant(m, v) = if bit(m, v) == 1 then m else m + pow2(v)\n\
   AUTH(m) =\n\
   \  reqSw?p -> AUTH(m)\n\
   \  [] rptSw?v -> AUTH(m)\n\
   \  [] reqApp?v?t -> (if t == mac(v) then AUTH(grant(m, v)) else AUTH(m))\n\
   \  [] ([] v : {0..7} @ bit(m, v) == 1 & rptUpd!v -> AUTH(m))\n\
   SPEC_AUTH = AUTH(0)\n"

let test_corpus_workers_identical () =
  with_tmp @@ fun path ->
  let summary =
    Ota.Corpus.generate ~seed:11 ~streams:10 ~until_ms:150 ~flawed_rate:0.5
      ~path ()
  in
  Alcotest.(check int) "streams generated" 10 summary.Ota.Corpus.streams;
  let script = Cspm.Elaborate.load_string ota_specs in
  let map, requirements =
    match
      Serve.Trace_run.prepare ~script ~specs:[] ~dbc:None ~corpus:path ()
    with
    | Ok v -> v
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  Alcotest.(check int) "two requirements" 2 (List.length requirements);
  (* One worker streams line by line while more parse in batches: the
     two loops must also agree on corrupt input. Splice in a truncated
     entry, a garbage line, an ill-typed field, an out-of-range id, and
     a stream that has only a meta line — plus an unauthorised update
     report, whose rejection pins a corpus line number in the report. *)
  let lines =
    String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")
  in
  let truncated =
    let e = List.nth lines 20 in
    String.sub e 0 (String.length e / 2)
  in
  let corrupt =
    [
      (12, truncated);
      (30, "utter garbage");
      (45, {|{"s":"s00003","t":"soon","n":"VMG","d":"tx","id":257,"data":[]}|});
      (60, {|{"s":"s00005","t":900,"n":"VMG","d":"tx","id":1e300,"data":[]}|});
      (70, {|{"s":"ghost","meta":{"drop":0.5}}|});
      (80, {|{"s":"s00007","t":9000,"n":"ECU","d":"tx","id":514,"data":[6]}|});
    ]
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun k line ->
          output_string oc line;
          output_char oc '\n';
          Option.iter
            (fun bad ->
              output_string oc bad;
              output_char oc '\n')
            (List.assoc_opt k corrupt))
        lines);
  let run w =
    match Serve.Trace_run.check_corpus ~workers:w ~map ~requirements ~path ()
    with
    | Ok report -> report
    | Error msg -> Alcotest.failf "check_corpus workers=%d: %s" w msg
  in
  let doc report =
    Obs.Json.to_string (Serve.Trace_run.json_of_report ~timing:false report)
  in
  let base = run 1 in
  Alcotest.(check int) "malformed lines" 4 base.Serve.Trace_run.malformed;
  Alcotest.(check int) "streams (the meta-only one is none)" 10
    base.Serve.Trace_run.streams;
  List.iter
    (fun (q : Serve.Trace_run.requirement_report) ->
      Alcotest.(check int) (q.name ^ " corrupt streams") 2 q.corrupt)
    base.Serve.Trace_run.requirements;
  (match base.Serve.Trace_run.requirements with
   | { samples = [ { stream = "s00007"; line; _ } ]; _ } :: _ ->
     Alcotest.(check int) "rejection line" 87 line
   | _ -> Alcotest.fail "SPEC_AUTH did not reject the spliced update");
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Printf.sprintf "workers=%d byte-identical report" w)
        (doc base) (doc (run w)))
    [ 2; 4 ]

let suite =
  ( "tracecheck",
    [
    Alcotest.test_case "accept and reject with positions" `Quick
      test_accept_reject;
    Alcotest.test_case "verdict latches after rejection" `Quick test_latch;
    Alcotest.test_case "tick only at termination" `Quick test_tick;
    Alcotest.test_case "out-of-alphabet events skipped" `Quick
      test_out_of_alphabet_skipped;
    QCheck_alcotest.to_alcotest agreement_test;
    QCheck_alcotest.to_alcotest codec_roundtrip_test;
    Alcotest.test_case "codec rejects invalid entries" `Quick
      test_entry_of_json_rejects;
    Alcotest.test_case "corpus generation is seed-deterministic" `Quick
      test_corpus_deterministic;
    Alcotest.test_case "parse_line classifies corrupt lines" `Quick
      test_parse_line;
    Alcotest.test_case "out-of-range integers are malformed" `Quick
      test_out_of_range_integers;
    QCheck_alcotest.to_alcotest differential_test;
    Alcotest.test_case "corrupt line poisons only its stream" `Quick
      test_corrupt_stream_contained;
    Alcotest.test_case "rejections attributed to declared faults" `Quick
      test_rejection_attribution;
    Alcotest.test_case "corpus verdicts identical across workers" `Quick
      test_corpus_workers_identical;
  ] )
