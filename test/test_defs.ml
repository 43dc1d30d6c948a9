(* Tests for the definition environment itself. *)

open Csp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_duplicates_rejected () =
  let defs = Defs.create () in
  Defs.declare_channel defs "c" [ Ty.Bool ];
  Defs.declare_datatype defs "D" [ "x", [] ];
  Defs.declare_nametype defs "N" (Ty.Int_range (0, 1));
  Defs.define_proc defs "P" [] Proc.stop;
  Defs.define_fun defs "f" [ "a" ] (Expr.var "a");
  let dup f = try f (); false with Defs.Duplicate _ -> true in
  check_bool "channel" true (dup (fun () -> Defs.declare_channel defs "c" []));
  check_bool "type vs datatype" true
    (dup (fun () -> Defs.declare_nametype defs "D" Ty.Bool));
  check_bool "constructor clash" true
    (dup (fun () -> Defs.declare_datatype defs "E" [ "x", [] ]));
  check_bool "process" true (dup (fun () -> Defs.define_proc defs "P" [] Proc.skip));
  check_bool "function" true (dup (fun () -> Defs.define_fun defs "f" [] (Expr.int 0)))

let test_copy_isolation () =
  let defs = Defs.create () in
  Defs.declare_channel defs "c" [ Ty.Bool ];
  let copy = Defs.copy defs in
  Defs.define_proc copy "ONLY_IN_COPY" [] Proc.stop;
  check_bool "copy sees it" true (Option.is_some (Defs.proc copy "ONLY_IN_COPY"));
  check_bool "original does not" true
    (Option.is_none (Defs.proc defs "ONLY_IN_COPY"));
  check_bool "ids differ" true (Defs.id defs <> Defs.id copy)

let test_lookup_surfaces () =
  let defs = Defs.create () in
  Defs.declare_channel defs "c" [ Ty.Int_range (0, 2); Ty.Bool ];
  Defs.declare_datatype defs "Msg" [ "a", []; "b", [ Ty.Bool ] ];
  check_int "channels listed" 1 (List.length (Defs.channels defs));
  check_int "chan_events is the product" 6 (List.length (Defs.chan_events defs "c"));
  check_int "field domain" 3 (List.length (Defs.field_domain defs ~chan:"c" 0));
  (match Defs.find_ctor defs "b" with
   | Some ("Msg", [ Ty.Bool ]) -> ()
   | _ -> Alcotest.fail "constructor lookup");
  check_int "alphabet spans all channels" 6 (List.length (Defs.alphabet defs));
  (try
     ignore (Defs.chan_events defs "nope");
     Alcotest.fail "expected Unknown_channel"
   with Defs.Unknown_channel _ -> ());
  try
    ignore (Defs.field_domain defs ~chan:"c" 5);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_events_of_symbolic_sets () =
  let defs = Defs.create () in
  Defs.declare_channel defs "c" [ Ty.Int_range (0, 3) ];
  Defs.declare_channel defs "d" [] ;
  let set =
    Eventset.diff
      (Eventset.union (Eventset.chan "c") (Eventset.chan "d"))
      (Eventset.events [ Event.event "c" [ Value.Int 0 ] ])
  in
  check_int "enumerated through the environment" 4
    (List.length (Defs.events_of defs set))

let test_domain_limit_respected () =
  let defs = Defs.create ~domain_limit:4 () in
  Defs.declare_channel defs "big" [ Ty.Int_range (0, 100) ];
  try
    ignore (Defs.chan_events defs "big");
    Alcotest.fail "expected Domain_too_large"
  with Ty.Domain_too_large _ -> ()

(* Environment ids key caches, so two environments must never share one —
   not even when they are created on different domains at once. *)
let test_ids_unique_across_domains () =
  let per_domain = 1_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init per_domain (fun _ -> Defs.id (Defs.create ()))))
  in
  let ids = List.concat_map Domain.join domains in
  check_int "every id distinct" (4 * per_domain)
    (List.length (List.sort_uniq Int.compare ids))

let suite =
  ( "defs",
    [
      Alcotest.test_case "duplicates rejected" `Quick test_duplicates_rejected;
      Alcotest.test_case "copies are isolated" `Quick test_copy_isolation;
      Alcotest.test_case "lookups" `Quick test_lookup_surfaces;
      Alcotest.test_case "symbolic set enumeration" `Quick
        test_events_of_symbolic_sets;
      Alcotest.test_case "domain limits" `Quick test_domain_limit_respected;
      Alcotest.test_case "ids are unique across concurrent domains" `Quick
        test_ids_unique_across_domains;
    ] )
