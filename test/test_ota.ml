(* Case-study regression tests: the requirement matrix of the paper's
   Table III across the security scenarios, with expected verdicts. *)

let check_bool = Alcotest.(check bool)

let verdicts scenario =
  List.map
    (fun c -> c.Ota.Requirements.id, Csp.Refine.holds c.Ota.Requirements.result)
    (Ota.Requirements.run_all scenario)

let expect scenario expected =
  let actual = verdicts scenario in
  List.iter
    (fun (id, want) ->
      match List.assoc_opt id actual with
      | Some got ->
        check_bool (Printf.sprintf "%s verdict" id) want got
      | None -> Alcotest.failf "missing check %s" id)
    expected

let test_baseline () =
  let s = Ota.Scenario.make () in
  expect s
    [ "R01", true; "R02", true; "R03", true; "R04", true;
      "R05v0", true; "R05v1", true ];
  check_bool "deadlock free" true
    (Csp.Refine.holds (Ota.Scenario.deadlock_result s));
  check_bool "divergence free" true
    (Csp.Refine.holds (Ota.Scenario.divergence_result s))

let test_intruder_mac_protected () =
  let s = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  (* the diagnosis exchange is spoofable (R02 fails: no nonces), but the
     MAC protects the update path *)
  expect s
    [ "R01", true; "R02", false; "R05v0", true; "R05v1", true ]

let test_flawed_ecu_attacked () =
  let s =
    Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder ()
  in
  expect s [ "R05v0", false; "R05v1", false ]

let test_leaked_key () =
  let s = Ota.Scenario.make ~medium:Ota.Scenario.Intruder_with_shared_key () in
  expect s [ "R05v0", false; "R05v1", false ]

let test_attack_trace_shape () =
  let s =
    Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder ()
  in
  match Ota.Requirements.r05 s ~version:1 with
  | Csp.Refine.Fails cex ->
    (* the counterexample ends with the forged installation *)
    (match List.rev cex.Csp.Refine.trace with
     | Csp.Event.Vis { Csp.Event.chan = "installed"; args = [ Csp.Value.Int 1 ] } :: _ -> ()
     | _ -> Alcotest.fail "expected installed.1 at the end of the attack");
    (* and the VMG never sent a valid request in it *)
    check_bool "no legitimate request in the trace" true
      (List.for_all
         (fun l ->
           match l with
           | Csp.Event.Vis { Csp.Event.chan = "send"; args = [ src; _; _ ] } ->
             not (Csp.Value.equal src Ota.Messages.vmg)
           | _ -> true)
         cex.Csp.Refine.trace)
  | Csp.Refine.Holds _ | Csp.Refine.Inconclusive _ ->
    Alcotest.fail "expected the forgery attack"

let test_liveness_split () =
  (* availability (paper Section IV-A1): holds on the reliable medium,
     broken by a dropping intruder — the safety/liveness split *)
  let reliable = Ota.Scenario.make () in
  check_bool "available on the reliable medium" true
    (Csp.Refine.holds (Ota.Requirements.r02_liveness reliable));
  let intruded = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  check_bool "drop attack breaks availability" false
    (Csp.Refine.holds (Ota.Requirements.r02_liveness intruded))

let test_lossy_network () =
  (* tentpole part 3: SP02 survives injected packet loss when observed at
     the delivery point, while the send-point variant breaks (a retry is
     two consecutive reqSw sends) — the expected contrast *)
  let s = Ota.Scenario.make ~medium:Ota.Scenario.Lossy () in
  check_bool "SP02 at the ECU survives packet loss" true
    (Csp.Refine.holds (Ota.Requirements.r02_delivered s));
  check_bool "send-point SP02 is broken by retries" false
    (Csp.Refine.holds (Ota.Requirements.r02 s));
  (* the reliable baseline satisfies both formulations *)
  let baseline = Ota.Scenario.make () in
  check_bool "delivered-form SP02 holds on the baseline" true
    (Csp.Refine.holds (Ota.Requirements.r02_delivered baseline))

let test_extended_scope () =
  let s = Ota.Scenario.make_extended () in
  check_bool "server scope deadlock free" true
    (Csp.Refine.holds (Ota.Scenario.deadlock_result s));
  check_bool "server scope divergence free" true
    (Csp.Refine.holds (Ota.Scenario.divergence_result s))

let test_demo_sources_are_wellformed () =
  let db = Candb.To_capl.msgdb (Candb.Dbc_parser.parse Ota.Capl_sources.dbc) in
  List.iter
    (fun (name, src) ->
      let errs = Capl.Sem.check ~db (Capl.Parser.program src) in
      Alcotest.(check (list string))
        (name ^ " has no semantic errors") []
        (List.map (fun e -> Format.asprintf "%a" Capl.Sem.pp_error e) errs))
    (Ota.Capl_sources.sources @ [ "ECU2", Ota.Capl_sources.ecu_nocheck ])

let test_checksum_matches_model_mac () =
  (* the CAPL checksum and the spec-level MAC agree on validity *)
  List.iter
    (fun v ->
      let tag = Ota.Capl_sources.checksum v in
      check_bool "checksum deterministic" true (tag = Ota.Capl_sources.checksum v);
      check_bool "checksum in tag domain" true (tag >= 0 && tag < 8))
    [ 0; 1; 2; 7 ]

(* Table II of the paper: in one 1000 ms update campaign of the demo
   CAPL network on the simulated bus, each of the four message types is
   sent exactly once. *)
let test_table2_messages_once () =
  let sim = Ota.Capl_sources.simulation () in
  Capl.Simulation.start sim;
  ignore (Capl.Simulation.run ~until_ms:1000 sim);
  let tx = Capl.Simulation.transmissions sim in
  List.iter
    (fun (name, id) ->
      Alcotest.(check int)
        (Printf.sprintf "%s (0x%03X) sent" name id)
        1
        (List.length (List.filter (fun (_, f) -> f.Canbus.Frame.id = id) tx)))
    [ "reqSw", 0x101; "rptSw", 0x201; "reqApp", 0x102; "rptUpd", 0x202 ]

(* Fig. 2 of the paper: the demonstration system's state spaces, as the
   graph the checks search — states, transitions, and quiescent states
   (no transition and not terminated). *)
let test_fig2_state_spaces () =
  let extracted = Ota.Capl_sources.build_system () in
  let reliable = Ota.Scenario.make () in
  let intruder = Ota.Scenario.make ~medium:Ota.Scenario.Intruder () in
  let extended = Ota.Scenario.make_extended () in
  List.iter
    (fun (name, defs, p, want) ->
      match Csp.Refine.explicit_graph defs p with
      | Csp.Lts.Complete lts ->
        Alcotest.(check (triple int int int))
          name want
          ( Csp.Lts.num_states lts,
            Csp.Lts.num_transitions lts,
            List.length (Csp.Lts.deadlocks lts) )
      | Csp.Lts.Partial _ ->
        Alcotest.failf "%s: compile ran out of budget" name)
    [
      ( "extracted VMG || ECU",
        extracted.Extractor.Pipeline.defs,
        extracted.Extractor.Pipeline.composed,
        (6, 5, 2) );
      ( "spec-level system, reliable medium",
        reliable.Ota.Scenario.defs,
        reliable.Ota.Scenario.system,
        (13, 13, 0) );
      ( "spec-level system, Dolev-Yao intruder",
        intruder.Ota.Scenario.defs,
        intruder.Ota.Scenario.system,
        (31, 180, 0) );
      ( "extended scope (update server)",
        extended.Ota.Scenario.defs,
        extended.Ota.Scenario.system,
        (25, 25, 0) );
    ]

let suite =
  ( "ota",
    [
      Alcotest.test_case "baseline requirement matrix" `Quick test_baseline;
      Alcotest.test_case "intruder with MACs intact" `Quick
        test_intruder_mac_protected;
      Alcotest.test_case "flawed ECU is attacked" `Quick test_flawed_ecu_attacked;
      Alcotest.test_case "leaked shared key" `Quick test_leaked_key;
      Alcotest.test_case "attack trace shape" `Quick test_attack_trace_shape;
      Alcotest.test_case "availability vs drop attacks" `Quick
        test_liveness_split;
      Alcotest.test_case "lossy network with retrying VMG" `Quick
        test_lossy_network;
      Alcotest.test_case "extended server scope" `Quick test_extended_scope;
      Alcotest.test_case "demo CAPL sources well-formed" `Quick
        test_demo_sources_are_wellformed;
      Alcotest.test_case "checksum sanity" `Quick test_checksum_matches_model_mac;
      Alcotest.test_case "Table II messages once per campaign" `Quick
        test_table2_messages_once;
      Alcotest.test_case "Fig. 2 state spaces" `Quick test_fig2_state_spaces;
    ] )
