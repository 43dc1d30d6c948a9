(* Scripts shared by the smoke gates and the BENCH_csp.json rows. *)

(* The edit daemon's script shape: [n] independent request/response
   components, each with its own two channels, three processes and one
   assertion. *)
let components n =
  let b = Buffer.create (n * 200) in
  for i = 0 to n - 1 do
    Printf.bprintf b "channel q%d, r%d : {0..1}\n" i i;
    Printf.bprintf b "V%d = q%d!0 -> r%d?y -> V%d\n" i i i i;
    Printf.bprintf b "E%d = q%d?x -> r%d!x -> E%d\n" i i i i;
    Printf.bprintf b "S%d = q%d?x -> r%d!x -> S%d\n" i i i i;
    Printf.bprintf b "assert S%d [T= V%d [| {| q%d, r%d |} |] E%d\n" i i i i i
  done;
  Buffer.contents b
