(* Tests for specification normalization (tau-closure subset construction
   and minimal acceptance sets). *)

open Csp
open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let defs = make_defs ()

let test_deterministic_spec () =
  let p = send "a" 0 (send "b" 1 Proc.stop) in
  let n = Normalise.of_term defs p in
  check_int "three nodes" 3 (Normalise.num_nodes (Normalise.form n));
  check_bool "a.0 leads on" true
    (Option.is_some (Normalise.after n (Normalise.initial n) (vis "a" 0)));
  check_bool "b.1 not initially" true
    (Option.is_none (Normalise.after n (Normalise.initial n) (vis "b" 1)))

let test_internal_choice_merges () =
  (* a!0 -> STOP |~| a!0 -> b!1 -> STOP : after <a.0>, one node holding
     both continuations *)
  let p = Proc.intc (send "a" 0 Proc.stop, send "a" 0 (send "b" 1 Proc.stop)) in
  let n = Normalise.of_term defs p in
  let after_a = Normalise.after n (Normalise.initial n) (vis "a" 0) in
  (match after_a with
   | None -> Alcotest.fail "a.0 must be possible"
   | Some node ->
     check_int "merged node has two members" 2
       (List.length (Normalise.members n node));
     check_bool "b.1 available from the merged node" true
       (Option.is_some (Normalise.after n node (vis "b" 1))))

let test_acceptances () =
  (* The initial node of the internal choice has two minimal acceptances:
     {a.0} from each stable branch (deduplicated), reflecting that the
     process may refuse nothing more. *)
  let p = Proc.intc (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  let n = Normalise.of_term defs p in
  let accs = Normalise.acceptances n (Normalise.initial n) in
  check_int "two minimal acceptances" 2 (List.length accs);
  (* external choice instead: one acceptance offering both events *)
  let q = Proc.ext (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  let n2 = Normalise.of_term defs q in
  let accs2 = Normalise.acceptances n2 (Normalise.initial n2) in
  check_int "one acceptance" 1 (List.length accs2);
  check_int "offering both" 2 (List.length (List.hd accs2))

let test_minimality () =
  (* STOP |~| a!0 -> STOP : acceptances {} and {a.0}; {} dominates {a.0},
     leaving only the empty acceptance. *)
  let p = Proc.intc (Proc.stop, send "a" 0 Proc.stop) in
  let n = Normalise.of_term defs p in
  let accs = Normalise.acceptances n (Normalise.initial n) in
  check_int "dominated acceptance removed" 1 (List.length accs);
  check_int "empty acceptance" 0 (List.length (List.hd accs))

let test_can_terminate () =
  let n = Normalise.of_term defs Proc.skip in
  check_bool "skip terminates" true (Normalise.can_terminate n (Normalise.initial n));
  let n2 = Normalise.of_term defs Proc.stop in
  check_bool "stop does not" false (Normalise.can_terminate n2 (Normalise.initial n2))

(* Determinism: every node has at most one successor per label. *)
let normalised_is_deterministic =
  QCheck.Test.make ~count:150 ~name:"normal form is deterministic" arb_proc
    (fun p ->
      let n = Normalise.of_term ~max_states:20_000 defs p in
      let ok = ref true in
      for i = 0 to Normalise.num_nodes (Normalise.form n) - 1 do
        let labels = List.map fst (Normalise.afters n i) in
        let sorted = List.sort_uniq Event.compare_label labels in
        if List.length sorted <> List.length labels then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Laziness                                                            *)
(* ------------------------------------------------------------------ *)

(* Four interleaved two-phase cells: 3^4 nodes in all (each cell idle,
   or answering a request with 0 or 1), of which following one label
   builds one more. *)
let cells_defs () =
  let defs = make_defs () in
  Defs.declare_channel defs "req" [ Ty.Int_range (0, 3); Ty.Int_range (0, 1) ];
  Defs.declare_channel defs "rsp" [ Ty.Int_range (0, 3); Ty.Int_range (0, 1) ];
  Defs.define_proc defs "CELL" [ "i" ]
    (Proc.prefix_items
       ( "req",
         [ Proc.Out (Expr.var "i"); Proc.In ("x", None) ],
         Proc.prefix "rsp"
           [ Expr.var "i"; Expr.var "x" ]
           (Proc.call ("CELL", [ Expr.var "i" ])) ));
  let cells =
    List.init 4 (fun i -> Proc.call ("CELL", [ Expr.int i ]))
  in
  defs, List.fold_left (fun acc c -> Proc.inter (acc, c)) (List.hd cells)
          (List.tl cells)

let req i x = Event.Vis (Event.event "req" [ Value.Int i; Value.Int x ])

let test_materialises_on_demand () =
  let defs, spec = cells_defs () in
  let n =
    Normalise.create ~step:(Semantics.make_cached defs)
      (Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) spec)
  in
  let nodes () = Normalise.num_nodes (Normalise.form n) in
  check_int "only the initial node exists" 1 (nodes ());
  check_int "eight labels, none resolved" 8
    (List.length (Normalise.labels n (Normalise.initial n)));
  check_int "still one node" 1 (nodes ());
  check_bool "req.0.1 is allowed" true
    (Option.is_some (Normalise.after n (Normalise.initial n) (req 0 1)));
  check_int "following it built its target only" 2 (nodes ());
  check_bool "no self-loops at the start" true
    (Normalise.self_loops n (Normalise.initial n) = []);
  check_int "finding none built nothing" 2 (nodes ());
  Normalise.force n;
  check_int "forcing builds all 3^4 nodes" 81 (nodes ())

let test_snapshot_round_trip () =
  let defs, spec = cells_defs () in
  let n = Normalise.of_term defs spec in
  let form = Normalise.form n in
  let copy =
    Normalise.import ~term:Fun.id
      (Marshal.from_string
         (Marshal.to_string (Normalise.export form) [])
         0)
  in
  check_int "same nodes" (Normalise.num_nodes form) (Normalise.num_nodes copy);
  check_int "same states" (Normalise.num_states form)
    (Normalise.num_states copy);
  (* marshalled terms lost hash-consing identity; re-admitted ones are
     the live terms again *)
  let reloaded =
    Normalise.session ~step:(Semantics.make_cached defs)
      (Normalise.import ~term:Cache.reintern_proc (Normalise.export form))
  in
  List.iteri
    (fun i (l, j) ->
      check_bool (Printf.sprintf "edge %d survives" i) true
        (Normalise.after reloaded 0 l = Some j))
    (Normalise.afters n 0)

(* ------------------------------------------------------------------ *)
(* Oracle: the lazy normal form against the eager reference            *)
(* ------------------------------------------------------------------ *)

module R = Normalise_reference

(* Starting from the initial nodes, walk both normal forms in lockstep,
   pairing nodes one to one: every paired node must have the same member
   terms, labels, acceptances, divergence and termination, and its edges
   must lead to paired nodes. With equal node counts this is an
   isomorphism. *)
let isomorphic lts reference lazy_form =
  let n = R.num_nodes reference in
  n = Normalise.num_nodes (Normalise.form lazy_form)
  &&
  let to_lazy = Array.make n (-1) and to_ref = Array.make n (-1) in
  let queue = Queue.create () in
  let pair r l =
    if to_lazy.(r) < 0 && to_ref.(l) < 0 then begin
      to_lazy.(r) <- l;
      to_ref.(l) <- r;
      Queue.add (r, l) queue;
      true
    end
    else to_lazy.(r) = l && to_ref.(l) = r
  in
  let terms ts = List.sort Proc.compare ts in
  let rec go () =
    match Queue.take_opt queue with
    | None -> true
    | Some (r, l) ->
      List.equal Proc.equal
        (terms (List.map (Lts.state_term lts) (R.members reference r)))
        (terms (Normalise.members lazy_form l))
      && List.equal (List.equal Event.equal_label)
           (R.acceptances reference r)
           (Normalise.acceptances lazy_form l)
      && R.divergent reference r = Normalise.divergent lazy_form l
      && R.can_terminate reference r = Normalise.can_terminate lazy_form l
      && (let re = R.afters reference r
          and le = Normalise.afters lazy_form l in
          List.length re = List.length le
          && List.for_all2
               (fun (rl, r') (ll, l') -> Event.equal_label rl ll && pair r' l')
               re le)
      && go ()
  in
  pair (R.initial reference) (Normalise.initial lazy_form) && go ()

let sorted_labels tbl =
  List.sort Event.compare_label (List.of_seq (Event.Label_tbl.to_seq_keys tbl))

(* [CYCLE \ {a, b}] is a two-state tau cycle: offered beside a spec it
   makes the initial node divergent. *)
let oracle_defs =
  let defs = make_defs () in
  Defs.define_proc defs "CYCLE" []
    (send "a" 0 (send "b" 1 (Proc.call ("CYCLE", []))));
  defs

(* Each generated spec is checked bare, interleaved with a RUN (whose
   event self-loops at the nodes where the spec cannot move on it, so it
   is spec-free only if no reachable node can), and in choice with a
   divergent cycle. *)
let oracle_specs p =
  [
    p;
    Proc.inter (p, Proc.run (Eventset.events [ ev "a" 2 ]));
    Proc.ext
      (p, Proc.hide (Proc.call ("CYCLE", []), Eventset.chans [ "a"; "b" ]));
  ]

let lazy_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"forced lazy normal form is isomorphic to the eager reference"
    arb_proc (fun p ->
      List.for_all
        (fun spec ->
          let defs = oracle_defs in
          match Lts.compile ~max_states:20_000 defs spec with
          | exception Lts.State_limit _ -> (
            match Normalise.of_term ~max_states:20_000 defs spec with
            | exception Budget.Exhausted States -> true
            | _ -> false)
          | lts ->
            let reference = R.normalise lts in
            let fresh =
              Normalise.create ~max_states:20_000
                ~step:(Semantics.make_cached defs)
                (Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs)
                   spec)
            in
            (* the early-exit walk runs on an unforced normal form *)
            List.equal Event.equal_label
              (sorted_labels (Reduce.spec_free_labels fresh))
              (sorted_labels (R.spec_free_labels reference))
            && isomorphic lts reference
                 (Normalise.of_term ~max_states:20_000 defs spec))
        (oracle_specs p))

let suite =
  ( "normalise",
    [
      Alcotest.test_case "deterministic specs" `Quick test_deterministic_spec;
      Alcotest.test_case "nondeterminism merges" `Quick test_internal_choice_merges;
      Alcotest.test_case "acceptance sets" `Quick test_acceptances;
      Alcotest.test_case "acceptance minimality" `Quick test_minimality;
      Alcotest.test_case "termination flag" `Quick test_can_terminate;
      QCheck_alcotest.to_alcotest normalised_is_deterministic;
      Alcotest.test_case "nodes are built on demand" `Quick
        test_materialises_on_demand;
      Alcotest.test_case "snapshots round-trip" `Quick
        test_snapshot_round_trip;
      QCheck_alcotest.to_alcotest lazy_matches_reference;
    ] )
