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

(* [n] interleaved VMG/ECU request/response pairs against the interleaving
   of their request/response properties: 2^n implementation states, and
   3^n nodes in the specification's full normal form. *)
let multi_ecu_system n =
  let defs = Csp.Defs.create () in
  let parts =
    List.init n (fun i ->
        let req = Printf.sprintf "req%d" i
        and rsp = Printf.sprintf "rsp%d" i in
        Csp.Defs.declare_channel defs req [ Csp.Ty.Int_range (0, 1) ];
        Csp.Defs.declare_channel defs rsp [ Csp.Ty.Int_range (0, 1) ];
        let ecu = Printf.sprintf "ECU%d" i in
        Csp.Defs.define_proc defs ecu []
          (Csp.Proc.prefix_items
             ( req,
               [ Csp.Proc.In ("x", None) ],
               Csp.Proc.prefix rsp [ Csp.Expr.var "x" ]
                 (Csp.Proc.call (ecu, [])) ));
        let vmg = Printf.sprintf "VMG%d" i in
        Csp.Defs.define_proc defs vmg []
          (Csp.Proc.send req [ Csp.Value.Int 0 ]
             (Csp.Proc.prefix_items
                (rsp, [ Csp.Proc.In ("y", None) ], Csp.Proc.call (vmg, []))));
        let spec_name = Printf.sprintf "SPEC%d" i in
        ignore
          (Security.Properties.request_response ~name:spec_name defs ~req
             ~resp:rsp);
        ( Csp.Proc.par
            ( Csp.Proc.call (vmg, []),
              Csp.Eventset.chans [ req; rsp ],
              Csp.Proc.call (ecu, []) ),
          Csp.Proc.call (spec_name, []) ))
  in
  let impl =
    match parts with
    | [] -> Csp.Proc.skip
    | (p0, _) :: rest ->
      List.fold_left (fun acc (p, _) -> Csp.Proc.inter (acc, p)) p0 rest
  in
  let spec =
    match parts with
    | [] -> Csp.Proc.skip
    | (_, s0) :: rest ->
      List.fold_left (fun acc (_, s) -> Csp.Proc.inter (acc, s)) s0 rest
  in
  defs, spec, impl
