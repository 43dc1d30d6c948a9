(* Unit tests for the operational semantics: one or more cases per firing
   rule — effectively one per operator row of the paper's Table I, plus
   the extended operators. *)

open Csp
open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let defs = make_defs ()

let trans p = Semantics.transitions defs p
let labels p = List.map fst (trans p)

(* nested-term checks go through Proc.view (terms are hash-consed records) *)
let is_prefix_on c p =
  match Proc.view p with
  | Proc.Prefix (c', _, _) -> String.equal c c'
  | _ -> false

let test_stop_skip () =
  check_int "STOP has no transitions" 0 (List.length (trans Proc.stop));
  (match trans Proc.skip with
   | [ (Event.Tick, t) ] when Proc.equal t Proc.omega -> ()
   | _ -> Alcotest.fail "SKIP must tick to Omega");
  check_int "Omega has no transitions" 0 (List.length (trans Proc.omega))

let test_prefix_output () =
  match trans (send "a" 1 Proc.skip) with
  | [ (Event.Vis e, t) ] when Proc.equal t Proc.skip ->
    Alcotest.check label "event" (vis "a" 1) (Event.Vis e)
  | _ -> Alcotest.fail "output prefix must offer exactly its event"

let test_prefix_input_expansion () =
  let p = Proc.prefix_items ("a", [ Proc.In ("x", None) ], Proc.stop) in
  check_int "input expands over the domain" 3 (List.length (trans p));
  (* restricted input *)
  let q =
    Proc.prefix_items
      ("a", [ Proc.In ("x", Some (Expr.Set [ Expr.int 0; Expr.int 2 ])) ], Proc.stop)
  in
  check_int "restriction filters" 2 (List.length (trans q))

let test_prefix_binding_flows () =
  (* c?x -> b!x : the bound value must appear in the continuation *)
  let p =
    Proc.prefix_items
      ("c", [ Proc.In ("x", None) ], Proc.prefix "b" [ Expr.var "x" ] Proc.stop)
  in
  List.iter
    (fun (l, target) ->
      match l, Proc.view target with
      | Event.Vis { Event.args = [ Value.Int v ]; _ },
        Proc.Prefix ("b", [ Proc.Out (Expr.Lit (Value.Int w)) ], _) ->
        check_int "value propagated" v w
      | _ -> Alcotest.fail "unexpected transition shape")
    (trans p)

let test_prefix_arity_mismatch () =
  try
    ignore (trans (Proc.prefix_items ("a", [], Proc.stop)));
    Alcotest.fail "expected Ill_formed"
  with Semantics.Ill_formed _ -> ()

let test_external_choice () =
  let p = Proc.ext (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  check_int "both branches offered" 2 (List.length (trans p));
  (* tau on the left keeps the choice *)
  let q = Proc.ext (Proc.intc (send "a" 0 Proc.stop, send "a" 1 Proc.stop), send "b" 1 Proc.stop) in
  let taus =
    List.filter (fun (l, _) -> l = Event.Tau) (trans q)
  in
  check_int "internal choice produces taus" 2 (List.length taus);
  List.iter
    (fun (_, t) ->
      match Proc.view t with
      | Proc.Ext (_, q) when is_prefix_on "b" q -> ()
      | _ -> Alcotest.failf "tau must preserve the choice: %a" Proc.pp t)
    taus

let test_internal_choice () =
  let p = Proc.intc (Proc.stop, Proc.skip) in
  check_int "two taus" 2 (List.length (trans p));
  check_bool "all tau" true (List.for_all (fun (l, _) -> l = Event.Tau) (trans p))

let test_sequential_composition () =
  (* SKIP; P starts P via tau *)
  (match trans (Proc.seq (Proc.skip, send "a" 0 Proc.stop)) with
   | [ (Event.Tau, t) ] when is_prefix_on "a" t -> ()
   | _ -> Alcotest.fail "SKIP; P must tau to P");
  (* a!0 -> SKIP ; b!1 -> STOP keeps the sequence *)
  match trans (Proc.seq (send "a" 0 Proc.skip, send "b" 1 Proc.stop)) with
  | [ (Event.Vis _, t) ]
    when (match Proc.view t with
          | Proc.Seq (l, _) -> Proc.equal l Proc.skip
          | _ -> false) ->
    ()
  | _ -> Alcotest.fail "left events continue the sequence"

let test_parallel_sync () =
  let sync = Eventset.chan "a" in
  (* both must agree on a *)
  let p = Proc.par (send "a" 1 Proc.stop, sync, Proc.prefix_items ("a", [ Proc.In ("x", None) ], Proc.stop)) in
  (match trans p with
   | [ (Event.Vis e, _) ] -> Alcotest.check label "synced" (vis "a" 1) (Event.Vis e)
   | ts -> Alcotest.failf "expected one synchronized event, got %d" (List.length ts));
  (* mismatched values block *)
  let q = Proc.par (send "a" 1 Proc.stop, sync, send "a" 2 Proc.stop) in
  check_int "value mismatch blocks" 0 (List.length (trans q));
  (* events outside the interface interleave *)
  let r = Proc.par (send "b" 0 Proc.stop, sync, send "b" 1 Proc.stop) in
  check_int "free events interleave" 2 (List.length (trans r))

let test_parallel_termination () =
  (* tick requires both sides *)
  let p = Proc.par (Proc.skip, Eventset.empty, Proc.skip) in
  (match trans p with
   | [ (Event.Tick, t) ] when Proc.equal t Proc.omega -> ()
   | _ -> Alcotest.fail "joint termination expected");
  let q = Proc.par (Proc.skip, Eventset.empty, send "a" 0 Proc.skip) in
  check_bool "no early tick" true
    (List.for_all (fun (l, _) -> l <> Event.Tick) (trans q))

let test_alphabetized_parallel () =
  let p =
    Proc.apar
      ( send "a" 0 (send "b" 0 Proc.stop),
        Eventset.chans [ "a"; "b" ],
        Eventset.chan "b",
        Proc.prefix_items ("b", [ Proc.In ("x", None) ], Proc.stop) )
  in
  (* a is left-only: free; b is shared: must sync *)
  (match trans p with
   | [ (Event.Vis e, p') ] ->
     Alcotest.check label "a first" (vis "a" 0) (Event.Vis e);
     (match trans p' with
      | [ (Event.Vis e', _) ] -> Alcotest.check label "b synced" (vis "b" 0) (Event.Vis e')
      | _ -> Alcotest.fail "b must sync")
   | _ -> Alcotest.fail "expected only the a event");
  (* events outside a side's alphabet are blocked *)
  let q =
    Proc.apar (send "b" 0 Proc.stop, Eventset.chan "a", Eventset.chan "b", Proc.stop)
  in
  check_int "out-of-alphabet blocked" 0 (List.length (trans q))

let test_interleaving () =
  let p = Proc.inter (send "a" 0 Proc.stop, send "a" 0 Proc.stop) in
  (* both can fire independently; transitions dedup to the two orders *)
  check_int "interleave" 2 (List.length (trans p));
  check_bool "no sync on events" true
    (List.for_all (fun (l, _) -> Event.is_visible l) (trans p))

let test_hiding () =
  let p = Proc.hide (send "a" 0 (send "b" 1 Proc.stop), Eventset.chan "a") in
  (match trans p with
   | [ (Event.Tau, t) ]
     when (match Proc.view t with
           | Proc.Hide (inner, _) -> is_prefix_on "b" inner
           | _ -> false) ->
     ()
   | _ -> Alcotest.fail "hidden event becomes tau");
  (* tick is never hidden *)
  let q = Proc.hide (Proc.skip, Eventset.chans [ "a"; "b"; "c"; "done_" ]) in
  match trans q with
  | [ (Event.Tick, t) ] when Proc.equal t Proc.omega -> ()
  | _ -> Alcotest.fail "tick passes through hiding"

let test_renaming () =
  let p = Proc.rename (send "a" 1 Proc.stop, [ "a", "b" ]) in
  match trans p with
  | [ (Event.Vis e, _) ] -> Alcotest.check label "renamed" (vis "b" 1) (Event.Vis e)
  | _ -> Alcotest.fail "renaming must relabel"

let test_guard_and_if () =
  check_int "false guard blocks" 0
    (List.length (trans (Proc.guard (Expr.bool false, Proc.skip))));
  (match trans (Proc.guard (Expr.bool true, Proc.skip)) with
   | [ (Event.Tick, _) ] -> ()
   | _ -> Alcotest.fail "true guard is transparent");
  match trans (Proc.ite (Expr.(int 1 < int 2), send "a" 0 Proc.stop, Proc.skip)) with
  | [ (Event.Vis _, _) ] -> ()
  | _ -> Alcotest.fail "if evaluates its condition"

let test_calls_and_recursion () =
  let defs = make_defs () in
  Defs.define_proc defs "LOOP" [ "n" ]
    (Proc.prefix_items
       ( "a",
         [ Proc.Out (Expr.var "n") ],
         Proc.call ("LOOP", [ Expr.Bin (Expr.Mod, Expr.(var "n" + int 1), Expr.int 3) ]) ));
  (match Semantics.transitions defs (Proc.call ("LOOP", [ Expr.int 0 ])) with
   | [ (Event.Vis e, t) ]
     when Proc.equal t (Proc.call ("LOOP", [ Expr.Lit (Value.Int 1) ])) ->
     Alcotest.check label "parameter evaluated" (vis "a" 0) (Event.Vis e)
   | _ -> Alcotest.fail "call must unfold with evaluated arguments");
  (* unguarded recursion is detected *)
  Defs.define_proc defs "BAD" [] (Proc.call ("BAD", []));
  (try
     ignore (Semantics.transitions defs (Proc.call ("BAD", [])));
     Alcotest.fail "expected Unguarded"
   with Semantics.Unguarded _ -> ());
  (* unknown process *)
  try
    ignore (Semantics.transitions defs (Proc.call ("NOPE", [])));
    Alcotest.fail "expected Ill_formed"
  with Semantics.Ill_formed _ -> ()

let test_run_chaos () =
  let p = Proc.run (Eventset.chan "c") in
  check_int "RUN offers the whole alphabet" 2 (List.length (trans p));
  check_bool "RUN self-loops" true
    (List.for_all (fun (_, t) -> Proc.equal t p) (trans p));
  let q = Proc.chaos (Eventset.chan "c") in
  check_int "CHAOS adds a tau to STOP" 3 (List.length (trans q));
  check_bool "CHAOS can deadlock" true
    (List.exists (fun (l, t) -> l = Event.Tau && Proc.equal t Proc.stop) (trans q))

let test_initials_stability () =
  let p = Proc.ext (send "a" 0 Proc.stop, Proc.intc (Proc.stop, Proc.stop)) in
  check_bool "int makes it unstable" false (Semantics.is_stable defs p);
  check_bool "prefix is stable" true (Semantics.is_stable defs (send "a" 0 Proc.stop));
  check_int "initials dedup" 1
    (List.length (sorted_initials defs (Proc.ext (send "a" 0 Proc.stop, send "a" 0 Proc.skip))))

let test_cached_equivalence () =
  let step = Semantics.make_cached defs in
  let p = Proc.par (send "a" 1 Proc.skip, Eventset.chan "a", Proc.prefix_items ("a", [ Proc.In ("x", None) ], Proc.skip)) in
  let t1 = step p in
  let t2 = step p in
  check_bool "cached result identical" true (t1 == t2);
  check_int "matches uncached" (List.length (trans p)) (List.length t1)

(* Table I of the paper: one micro-process per basic operator over
   channels [a] and [b] of type [{0..3}], and the number of transitions
   the semantics gives each. *)
let test_table1_transition_counts () =
  let defs = Defs.create () in
  Defs.declare_channel defs "a" [ Ty.Int_range (0, 3) ];
  Defs.declare_channel defs "b" [ Ty.Int_range (0, 3) ];
  let p0 = Proc.send "a" [ Value.Int 0 ] Proc.stop in
  let q0 = Proc.send "b" [ Value.Int 1 ] Proc.stop in
  List.iter
    (fun (operator, p, n) ->
      check_int operator n (List.length (Semantics.transitions defs p)))
    [
      "prefix", p0, 1;
      "input", Proc.prefix_items ("a", [ Proc.In ("x", None) ], Proc.stop), 4;
      "output", Proc.send "a" [ Value.Int 0 ] Proc.skip, 1;
      "sequential composition", Proc.seq (p0, q0), 1;
      "external choice", Proc.ext (p0, q0), 2;
      "internal choice", Proc.intc (p0, q0), 2;
      ( "alphabetised parallel",
        Proc.apar (p0, Eventset.chan "a", Eventset.chan "b", q0),
        2 );
      "interleaving", Proc.inter (p0, q0), 2;
    ]

let suite =
  ( "semantics",
    [
      Alcotest.test_case "STOP, SKIP, Omega" `Quick test_stop_skip;
      Alcotest.test_case "output prefix" `Quick test_prefix_output;
      Alcotest.test_case "input expansion" `Quick test_prefix_input_expansion;
      Alcotest.test_case "input binding flows" `Quick test_prefix_binding_flows;
      Alcotest.test_case "prefix arity checking" `Quick test_prefix_arity_mismatch;
      Alcotest.test_case "external choice" `Quick test_external_choice;
      Alcotest.test_case "internal choice" `Quick test_internal_choice;
      Alcotest.test_case "sequential composition" `Quick test_sequential_composition;
      Alcotest.test_case "generalized parallel" `Quick test_parallel_sync;
      Alcotest.test_case "distributed termination" `Quick test_parallel_termination;
      Alcotest.test_case "alphabetized parallel" `Quick test_alphabetized_parallel;
      Alcotest.test_case "interleaving" `Quick test_interleaving;
      Alcotest.test_case "hiding" `Quick test_hiding;
      Alcotest.test_case "renaming" `Quick test_renaming;
      Alcotest.test_case "guards and conditionals" `Quick test_guard_and_if;
      Alcotest.test_case "calls and recursion" `Quick test_calls_and_recursion;
      Alcotest.test_case "RUN and CHAOS" `Quick test_run_chaos;
      Alcotest.test_case "initials and stability" `Quick test_initials_stability;
      Alcotest.test_case "memoized transitions" `Quick test_cached_equivalence;
      Alcotest.test_case "Table I transition counts" `Quick
        test_table1_transition_counts;
    ] )
