(* Unit tests for symbolic event sets. *)

open Csp

let e c args = Event.event c (List.map (fun n -> Value.Int n) args)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_membership () =
  let s = Eventset.chans [ "send"; "rec" ] in
  check_bool "channel production" true (Eventset.mem s (e "send" [ 1 ]));
  check_bool "other channel" false (Eventset.mem s (e "other" []));
  let ex = Eventset.events [ e "send" [ 1 ]; e "send" [ 2 ] ] in
  check_bool "explicit member" true (Eventset.mem ex (e "send" [ 2 ]));
  check_bool "explicit non-member" false (Eventset.mem ex (e "send" [ 3 ]))

let test_by_channel () =
  let chans = Eventset.chans [ "a"; "b" ] in
  let ex = Eventset.events [ e "a" [ 1 ] ] in
  check_bool "whole channels" true (Eventset.by_channel chans);
  check_bool "the empty set" true (Eventset.by_channel Eventset.empty);
  check_bool "a union of channels" true
    (Eventset.by_channel (Eventset.union chans (Eventset.chan "c")));
  check_bool "explicit events" false (Eventset.by_channel ex);
  check_bool "a channel prefix" false
    (Eventset.by_channel (Eventset.prefixed "a" [ Value.Int 1 ]));
  check_bool "a difference with events" false
    (Eventset.by_channel (Eventset.diff chans ex))

let test_union_diff () =
  let s =
    Eventset.union (Eventset.chan "a") (Eventset.events [ e "b" [ 0 ] ])
  in
  check_bool "union left" true (Eventset.mem s (e "a" [ 9 ]));
  check_bool "union right" true (Eventset.mem s (e "b" [ 0 ]));
  check_bool "union miss" false (Eventset.mem s (e "b" [ 1 ]));
  let d = Eventset.diff (Eventset.chan "a") (Eventset.events [ e "a" [ 1 ] ]) in
  check_bool "diff keeps" true (Eventset.mem d (e "a" [ 0 ]));
  check_bool "diff removes" false (Eventset.mem d (e "a" [ 1 ]))

let test_empty () =
  check_bool "empty" false (Eventset.mem Eventset.empty (e "a" []));
  check_bool "syntactic emptiness" true
    (Eventset.is_empty_syntactically (Eventset.union Eventset.empty Eventset.empty));
  check_bool "chans [] is empty" true
    (Eventset.is_empty_syntactically (Eventset.chans []))

let test_channels_mentioned () =
  let s =
    Eventset.union
      (Eventset.chans [ "b"; "a" ])
      (Eventset.events [ e "c" [ 1 ] ])
  in
  Alcotest.(check (list string)) "sorted channels" [ "a"; "b"; "c" ]
    (Eventset.channels_mentioned s)

let test_enumerate () =
  let chan_events = function
    | "a" -> [ e "a" [ 0 ]; e "a" [ 1 ] ]
    | "b" -> [ e "b" [ 0 ] ]
    | _ -> []
  in
  let s = Eventset.union (Eventset.chans [ "a"; "b" ]) (Eventset.events [ e "a" [ 0 ] ]) in
  check_int "enumerate dedups" 3 (List.length (Eventset.enumerate ~chan_events s));
  let d = Eventset.diff (Eventset.chan "a") (Eventset.events [ e "a" [ 0 ] ]) in
  check_int "enumerate diff" 1 (List.length (Eventset.enumerate ~chan_events d))

let suite =
  ( "eventset",
    [
      Alcotest.test_case "membership" `Quick test_membership;
      Alcotest.test_case "membership by channel alone" `Quick test_by_channel;
      Alcotest.test_case "union and difference" `Quick test_union_diff;
      Alcotest.test_case "emptiness" `Quick test_empty;
      Alcotest.test_case "channels mentioned" `Quick test_channels_mentioned;
      Alcotest.test_case "enumeration" `Quick test_enumerate;
    ] )
