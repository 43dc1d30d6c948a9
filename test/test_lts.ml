(* Tests for explicit LTS compilation and graph analyses. *)

open Csp
open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let defs = make_defs ()

let cycle () =
  (* A = a!0 -> b!0 -> A : two states, two transitions *)
  let defs = make_defs () in
  Defs.define_proc defs "A" [] (send "a" 0 (send "b" 0 (Proc.call ("A", []))));
  defs, Proc.call ("A", [])

let test_compile_cycle () =
  let defs, p = cycle () in
  let lts = Lts.compile defs p in
  check_int "states" 2 (Lts.num_states lts);
  check_int "transitions" 2 (Lts.num_transitions lts);
  check_int "initial" 0 lts.Lts.initial

let test_state_limit () =
  let defs, p = cycle () in
  try
    ignore (Lts.compile ~max_states:1 defs p);
    Alcotest.fail "expected State_limit"
  with Lts.State_limit 1 -> ()

let test_deadlocks () =
  let lts = Lts.compile defs (send "a" 0 Proc.stop) in
  check_int "one deadlock state" 1 (List.length (Lts.deadlocks lts));
  (* terminated processes do not count as deadlocked *)
  let lts2 = Lts.compile defs (send "a" 0 Proc.skip) in
  check_int "termination is not deadlock" 0 (List.length (Lts.deadlocks lts2))

let test_tau_closure () =
  let p = Proc.intc (send "a" 0 Proc.stop, Proc.intc (Proc.stop, Proc.skip)) in
  let lts = Lts.compile defs p in
  let closure = Lts.tau_closure lts [ lts.Lts.initial ] in
  (* initial + 2 first-level + 2 second-level = 5 states reachable by tau *)
  check_int "closure size" 5 (List.length closure)

let test_path_to () =
  let p = send "a" 0 (send "b" 1 Proc.stop) in
  let lts = Lts.compile defs p in
  match Lts.trace_path_to lts (fun i -> Lts.transitions_of lts i = []) with
  | Some (trace, _) ->
    check_int "path length" 2 (List.length trace);
    Alcotest.check label "first" (vis "a" 0) (Event.Vis (List.hd trace))
  | None -> Alcotest.fail "expected a path to the deadlock"

let test_divergences () =
  (* P = (a!0 -> P) \ {a} diverges *)
  let defs = make_defs () in
  Defs.define_proc defs "P" [] (send "a" 0 (Proc.call ("P", [])));
  let hidden = Proc.hide (Proc.call ("P", []), Eventset.chan "a") in
  let lts = Lts.compile defs hidden in
  check_bool "tau cycle found" true (Lts.divergences lts <> []);
  let sound = Lts.compile defs (Proc.call ("P", [])) in
  check_int "visible loop does not diverge" 0 (List.length (Lts.divergences sound))

let test_initials_stability () =
  let p = Proc.ext (send "a" 0 Proc.stop, Proc.intc (Proc.stop, Proc.stop)) in
  let lts = Lts.compile defs p in
  check_bool "unstable initial" false (Lts.is_stable lts lts.Lts.initial);
  check_bool "initials include a.0" true
    (List.exists (Event.equal_label (vis "a" 0)) (Lts.initials lts lts.Lts.initial))

(* Random graphs, up to 12 states, each edge tau or a.0, rows sorted as
   every [Lts.t]'s are (taus first). *)
let gen_graph =
  let open QCheck.Gen in
  int_range 1 12 >>= fun n ->
  let edge = pair (oneofl [ Event.Tau; vis "a" 0 ]) (int_bound (n - 1)) in
  map
    (fun rows ->
      {
        Lts.initial = 0;
        states = Array.make n Proc.stop;
        transitions =
          Array.of_list
            (List.map
               (List.sort_uniq (fun (l1, j1) (l2, j2) ->
                    let c = Event.compare_label l1 l2 in
                    if c <> 0 then c else Int.compare j1 j2))
               rows);
      })
    (list_repeat n (list_size (int_bound 3) edge))

(* A state diverges iff it reaches itself by one or more tau edges. *)
let divergences_match_definition =
  QCheck.Test.make ~count:500
    ~name:"divergences are the states on a tau cycle"
    (QCheck.make
       ~print:(fun lts ->
         String.concat "; "
           (Array.to_list
              (Array.mapi
                 (fun i row ->
                   Printf.sprintf "%d -> %s" i
                     (String.concat ","
                        (List.map
                           (fun (l, j) ->
                             Printf.sprintf "%s:%d" (Event.label_to_string l) j)
                           row)))
                 lts.Lts.transitions)))
       gen_graph) (fun lts ->
      let n = Lts.num_states lts in
      let tau_succs i =
        List.filter_map
          (fun (l, j) -> match l with Event.Tau -> Some j | _ -> None)
          (Lts.transitions_of lts i)
      in
      let on_cycle i =
        let seen = Array.make n false in
        let rec reach = function
          | [] -> false
          | j :: rest when seen.(j) -> reach rest
          | j :: rest ->
            seen.(j) <- true;
            j = i || reach (tau_succs j @ rest)
        in
        reach (tau_succs i)
      in
      Lts.divergences lts = List.filter on_cycle (List.init n Fun.id))

let suite =
  ( "lts",
    [
      Alcotest.test_case "compiling recursive processes" `Quick test_compile_cycle;
      Alcotest.test_case "state limit" `Quick test_state_limit;
      Alcotest.test_case "deadlock detection" `Quick test_deadlocks;
      Alcotest.test_case "tau closure" `Quick test_tau_closure;
      Alcotest.test_case "shortest path search" `Quick test_path_to;
      Alcotest.test_case "divergence detection" `Quick test_divergences;
      Alcotest.test_case "initials and stability" `Quick test_initials_stability;
      QCheck_alcotest.to_alcotest divergences_match_definition;
    ] )
