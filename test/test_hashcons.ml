(* Hash-consing invariants, and goldens of the stock checks: the
   renderings on which hash-consed interning and a deep structural-equality
   build of the engine agreed, pinned by digest. *)

open Csp
module AT = Security.Attack_tree

let cfg = Check_config.default

(* ------------------------------------------------------------------ *)
(* qcheck: equal/hash agree with structural equality                   *)
(* ------------------------------------------------------------------ *)

(* A deep copy through the smart constructors: by the hash-consing
   invariant the copy must come back physically equal. *)
let rec rebuild p =
  match Proc.view p with
  | Proc.Stop -> Proc.stop
  | Proc.Skip -> Proc.skip
  | Proc.Omega -> Proc.omega
  | Proc.Prefix (c, items, k) -> Proc.prefix_items (c, items, rebuild k)
  | Proc.Ext (a, b) -> Proc.ext (rebuild a, rebuild b)
  | Proc.Int (a, b) -> Proc.intc (rebuild a, rebuild b)
  | Proc.Seq (a, b) -> Proc.seq (rebuild a, rebuild b)
  | Proc.Par (a, s, b) -> Proc.par (rebuild a, s, rebuild b)
  | Proc.APar (a, sa, sb, b) -> Proc.apar (rebuild a, sa, sb, rebuild b)
  | Proc.Inter (a, b) -> Proc.inter (rebuild a, rebuild b)
  | Proc.Interrupt (a, b) -> Proc.interrupt (rebuild a, rebuild b)
  | Proc.Timeout (a, b) -> Proc.timeout (rebuild a, rebuild b)
  | Proc.Hide (a, s) -> Proc.hide (rebuild a, s)
  | Proc.Rename (a, m) -> Proc.rename (rebuild a, m)
  | Proc.If (c, a, b) -> Proc.ite (c, rebuild a, rebuild b)
  | Proc.Guard (c, a) -> Proc.guard (c, rebuild a)
  | Proc.Call (n, args) -> Proc.call (n, args)
  | Proc.Ext_over (x, s, a) -> Proc.ext_over (x, s, rebuild a)
  | Proc.Int_over (x, s, a) -> Proc.int_over (x, s, rebuild a)
  | Proc.Inter_over (x, s, a) -> Proc.inter_over (x, s, rebuild a)
  | Proc.Run s -> Proc.run s
  | Proc.Chaos s -> Proc.chaos s

let equal_is_structural =
  QCheck.Test.make ~count:500
    ~name:"Proc.equal and Proc.compare agree with structural equality"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (p, q) ->
      Proc.equal p q = Proc.structural_equal p q
      && Proc.compare p q = 0 = Proc.equal p q)

let rebuild_interns_to_same_node =
  QCheck.Test.make ~count:500
    ~name:"a deep rebuild is physically the same term, with the same hash"
    Helpers.arb_proc (fun p ->
      let q = rebuild p in
      p == q && Proc.hash p = Proc.hash q && Proc.id p = Proc.id q
      && Proc.structural_hash p = Proc.structural_hash q)

let noop_subst_is_identity =
  QCheck.Test.make ~count:500
    ~name:"a substitution that binds nothing preserves identity"
    Helpers.arb_proc (fun p -> Proc.subst (fun _ -> None) p == p)

(* ------------------------------------------------------------------ *)
(* Goldens: the renderings both interning schemes gave                 *)
(* ------------------------------------------------------------------ *)

(* Canonical rendering of a result, excluding the timing fields (wall_s,
   states_per_sec) that legitimately vary between runs. Everything else —
   verdict, counterexample trace, violating state, structural stats,
   resume hints — is pinned byte for byte, by the digest of the
   rendering. *)
let render result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match result with
   | Refine.Holds s ->
     Format.fprintf ppf "Holds impl=%d spec=%d pairs=%d" s.Refine.impl_states
       s.Refine.spec_nodes s.Refine.pairs
   | Refine.Fails cex -> Format.fprintf ppf "Fails %a" Refine.pp_counterexample cex
   | Refine.Inconclusive (s, hint) ->
     Format.fprintf ppf "Inconclusive impl=%d spec=%d pairs=%d %a"
       s.Refine.impl_states s.Refine.spec_nodes s.Refine.pairs
       Refine.pp_resume_hint hint);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Each digest is of the rendering on which two builds of the engine
   agreed: one interning implementation states by hash-consed id, one by
   deep structural hashing. *)
let pinned name runs =
  List.iter
    (fun (label, run, digest) ->
      let got = render (run ()) in
      if not (String.equal (Digest.to_hex (Digest.string got)) digest) then
        Alcotest.failf "%s/%s: the rendering moved from %s:@.%s" name label
          digest got)
    runs

let test_requirements_oracle () =
  let s = Ota.Scenario.make () in
  pinned "requirements"
    [
      (* Holds impl=3 spec=2 pairs=3 *)
      ( "R01",
        (fun () -> Ota.Requirements.r01 ~config:cfg s),
        "a635bbe87c32d93a1375b7c13d796bbd" );
      (* Holds impl=4 spec=2 pairs=4 *)
      ( "SP02",
        (fun () -> Ota.Requirements.r02 ~config:cfg s),
        "efbb524a1c4d1f933ea3b34bde78725f" );
      ( "SP02-delivered",
        (fun () -> Ota.Requirements.r02_delivered ~config:cfg s),
        "efbb524a1c4d1f933ea3b34bde78725f" );
      (* Holds impl=12 spec=2 pairs=12 *)
      ( "SP02-liveness",
        (fun () -> Ota.Requirements.r02_liveness ~config:cfg s),
        "7320dcbcad5bd7b5d2becae816793c35" );
      (* Holds impl=5 spec=2 pairs=5 *)
      ( "R03",
        (fun () -> Ota.Requirements.r03 ~config:cfg s),
        "fe3ab65e242c165d2757f342c4bba8fc" );
      ( "R04",
        (fun () -> Ota.Requirements.r04 ~config:cfg s),
        "efbb524a1c4d1f933ea3b34bde78725f" );
      ( "R05v1",
        (fun () -> Ota.Requirements.r05 ~config:cfg s ~version:1),
        "a635bbe87c32d93a1375b7c13d796bbd" );
    ]

let test_requirements_oracle_intruder () =
  (* the intruder scenario makes R05 fail — the Fails side of the suite *)
  let s = Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder () in
  pinned "requirements-intruder"
    [
      (* Fails: trace <recv.ecu.(reqApp.1.(mac.(key.kAtt).0)), installed.1> *)
      ( "R05v1",
        (fun () -> Ota.Requirements.r05 ~config:cfg s ~version:1),
        "d9c1dbcd062a50dd9325f821a0dc9ce6" );
      (* Fails: trace <send.ecu.vmg.(rptSw.0)> *)
      ( "SP02",
        (fun () -> Ota.Requirements.r02 ~config:cfg s),
        "5b5039d5a06719970b807e0c9ad7c806" );
    ]

let test_ns_oracle () =
  pinned "needham-schroeder"
    [
      (* the broken protocol fails quickly with Lowe's attack trace *)
      ( "broken",
        (fun () ->
          Security.Ns_protocol.check
            ~config:Security.Ns_protocol.default_config ~fixed:false ()),
        "b72caf33de8f45a2457d3e3fcf6379a3" );
      (* a pair-budgeted run of the fixed protocol: its 500 pairs are
         enough for the reduced graph, Holds impl=3 spec=2 pairs=3 *)
      ( "fixed-budgeted",
        (fun () ->
          let defs, system = Security.Ns_protocol.build ~fixed:true in
          let spec = Security.Ns_protocol.authentication_spec defs in
          Refine.check
            ~config:Check_config.(cfg |> with_max_pairs 500)
            defs ~spec ~impl:system),
        "a635bbe87c32d93a1375b7c13d796bbd" );
    ]

let test_attack_tree_oracle () =
  let tree =
    AT.or_node
      [
        AT.ordered_and [ AT.action "capture" []; AT.action "inject" [] ];
        AT.ordered_and [ AT.action "steal_key" []; AT.action "forge" [] ];
      ]
  in
  let make_defs () =
    let defs = Defs.create () in
    List.iter (fun c -> Defs.declare_channel defs c []) (AT.channels tree);
    defs
  in
  let proc = AT.to_proc tree in
  (* the replay branch alone is a trace refinement of the full tree; the
     full tree is not a refinement of the replay branch *)
  let replay_only =
    AT.to_proc (AT.ordered_and [ AT.action "capture" []; AT.action "inject" [] ])
  in
  pinned "attack-tree"
    [
      (* Holds impl=4 spec=4 pairs=4 *)
      ( "replay-refines-tree",
        (fun () ->
          Refine.traces_refines ~config:cfg (make_defs ()) ~spec:proc
            ~impl:replay_only),
        "a2d0165ca6d61bbbb687871a49b4da0c" );
      (* Fails: trace <steal_key> *)
      ( "tree-exceeds-replay",
        (fun () ->
          Refine.traces_refines ~config:cfg (make_defs ()) ~spec:replay_only
            ~impl:proc),
        "d0d4e8718231669405a147f2090b3038" );
      (* Holds impl=7 spec=5 pairs=7 *)
      ( "self-failures",
        (fun () ->
          Refine.failures_refines ~config:cfg (make_defs ()) ~spec:proc
            ~impl:proc),
        "1b635b226e44eb37c37b63a1a4ec7ac5" );
    ]

let suite =
  ( "hashcons",
    [
      QCheck_alcotest.to_alcotest equal_is_structural;
      QCheck_alcotest.to_alcotest rebuild_interns_to_same_node;
      QCheck_alcotest.to_alcotest noop_subst_is_identity;
      Alcotest.test_case "oracle: secure-update requirements" `Quick
        test_requirements_oracle;
      Alcotest.test_case "oracle: intruder scenario" `Quick
        test_requirements_oracle_intruder;
      Alcotest.test_case "oracle: Needham-Schroeder" `Quick test_ns_oracle;
      Alcotest.test_case "oracle: attack trees" `Quick test_attack_tree_oracle;
    ] )
