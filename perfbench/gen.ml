(* Seeded input generators. Every generator is a pure function of its seed
   (and size arguments): the program under test only ever sees the strings
   built here. *)

let rng seed salt = Random.State.make [| seed; salt |]

(* Fisher-Yates over a fresh array. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------------------------------------------------------------------- *)
(* fig1-ota: the paper's Section V network, VMG + ECU + attacker on the
   bus medium. *)

type fig1 = {
  target : int;  (** version the VMG installs, 1..7 *)
  secret : int;  (** shared MAC key, 1..7 *)
  extra : int;  (** stateless diagnostic handlers chained after rptUpd *)
  atk_version : int;
  atk_tag : int;  (** never the valid tag for [atk_version] *)
}

(* The extra-handler counts 1, 2 and 3 are dealt out equally (in seeded
   order) so every pool has the same cost mix, and the median op lands
   inside the middle mode rather than between two modes. *)
let fig1_variants ~seed n =
  let st = rng seed 1 in
  let extras = shuffle st (Array.init n (fun i -> 1 + (i mod 3))) in
  List.init n (fun i ->
      let target = 1 + Random.State.int st 7 in
      let secret = 1 + Random.State.int st 7 in
      let atk_version = Random.State.int st 8 in
      let valid = (atk_version + secret) mod 8 in
      let atk_tag = (valid + 1 + Random.State.int st 7) mod 8 in
      { target; secret; extra = extras.(i); atk_version; atk_tag })

let valid_tag v ~secret = (v + secret) mod 8

let fig1_dbc v =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "VERSION \"1.0\"\nBU_: VMG ECU ATTACKER\n";
  add "BO_ 257 reqSw: 1 VMG\n SG_ ping : 0|2@1+ (1,0) [0|3] \"\" ECU\n";
  add "BO_ 513 rptSw: 1 ECU\n SG_ version : 0|3@1+ (1,0) [0|7] \"\" VMG\n";
  add "BO_ 258 reqApp: 2 VMG\n SG_ version : 0|3@1+ (1,0) [0|7] \"\" ECU\n";
  add " SG_ tag : 8|3@1+ (1,0) [0|7] \"\" ECU\n";
  add "BO_ 514 rptUpd: 1 ECU\n SG_ version : 0|3@1+ (1,0) [0|7] \"\" VMG\n";
  for k = 0 to v.extra - 1 do
    add "BO_ %d diagReq%d: 1 VMG\n SG_ sel : 0|2@1+ (1,0) [0|3] \"\" ECU\n"
      (768 + k) k;
    add "BO_ %d diagRsp%d: 1 ECU\n SG_ sel : 0|2@1+ (1,0) [0|3] \"\" VMG\n"
      (1024 + k) k
  done;
  Buffer.contents b

(* The VMG starts the diagnostic chain once the update result arrives;
   each response triggers the next request. *)
let fig1_vmg v =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "variables {\n  message reqSw mReq;\n  message reqApp mApp;\n";
  for k = 0 to v.extra - 1 do
    add "  message diagReq%d mDiag%d;\n" k k
  done;
  add "  msTimer retry;\n  int target = %d;\n}\n" v.target;
  add "on start {\n  mReq.ping = 1;\n  output(mReq);\n  setTimer(retry, 50);\n}\n";
  add
    "on timer retry {\n  mReq.ping = 1;\n  output(mReq);\n  setTimer(retry, 50);\n}\n";
  add "on message rptSw {\n  cancelTimer(retry);\n";
  add "  if (this.version < target) {\n    mApp.version = target;\n";
  add "    mApp.tag = (target + %d) %% 8;\n    output(mApp);\n  }\n}\n" v.secret;
  add "on message rptUpd {\n";
  if v.extra > 0 then add "  mDiag0.sel = 1;\n  output(mDiag0);\n";
  add "}\n";
  for k = 0 to v.extra - 2 do
    add "on message diagRsp%d {\n  mDiag%d.sel = 1;\n  output(mDiag%d);\n}\n" k
      (k + 1) (k + 1)
  done;
  if v.extra > 0 then
    add "on message diagRsp%d {\n  write(\"diagnosis done\");\n}\n"
      (v.extra - 1);
  Buffer.contents b

let fig1_ecu ~check v =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "variables {\n  message rptSw mList;\n  message rptUpd mResult;\n";
  for k = 0 to v.extra - 1 do
    add "  message diagRsp%d mDiag%d;\n" k k
  done;
  add "  int version = 0;\n}\n";
  add "int valid(int v, int tag) {\n  return tag == (v + %d) %% 8;\n}\n"
    v.secret;
  add "on message reqSw {\n  mList.version = version;\n  output(mList);\n}\n";
  add "on message reqApp {\n";
  if check then
    add
      "  if (valid(this.version, this.tag)) {\n    version = this.version;\n\
      \    mResult.version = version;\n    output(mResult);\n  }\n"
  else
    add
      "  version = this.version;\n  mResult.version = version;\n\
      \  output(mResult);\n";
  add "}\n";
  for k = 0 to v.extra - 1 do
    add "on message diagReq%d {\n  mDiag%d.sel = 2;\n  output(mDiag%d);\n}\n" k
      k k
  done;
  Buffer.contents b

let fig1_attacker v =
  Printf.sprintf
    "variables { message reqApp mEvil; }\n\
     on start {\n\
    \  mEvil.version = %d;\n\
    \  mEvil.tag = %d;\n\
    \  output(mEvil);\n\
     }\n"
    v.atk_version v.atk_tag

let fig1_sources ~flawed v =
  [
    "ATTACKER", fig1_attacker v;
    "VMG", fig1_vmg v;
    "ECU", fig1_ecu ~check:(not flawed) v;
  ]

(* Every channel the extracted script declares that neither property
   observes: the node-to-bus transmit channels, the retry timer and the
   diagnostic chain. *)
let fig1_internal v =
  let diag =
    List.concat
      (List.init v.extra (fun k ->
           [
             Printf.sprintf "diagReq%d" k;
             Printf.sprintf "diagRsp%d" k;
             Printf.sprintf "tx_VMG_diagReq%d" k;
             Printf.sprintf "tx_ECU_diagRsp%d" k;
           ]))
  in
  [
    "timer_VMG_retry";
    "tx_ATTACKER_reqApp";
    "tx_VMG_reqSw";
    "tx_VMG_reqApp";
    "tx_ECU_rptSw";
    "tx_ECU_rptUpd";
  ]
  @ diag

(* SP02 (diagnosis alternation) and TAG (an update result only follows a
   validly tagged apply request for that version), each over its own
   projection of the bus. *)
let fig1_properties v =
  let hide chans = String.concat ", " (chans @ fig1_internal v) in
  Printf.sprintf
    "\n\
     SP02 = reqSw?x -> rptSw?y -> SP02\n\
     TAGSPEC = reqApp?v?t -> (if t == (v + %d) %% 8 then TAGAFTER(v) else \
     TAGSPEC)\n\
     TAGAFTER(v) = rptUpd!v -> TAGSPEC\n\
     assert SP02 [T= SYSTEM \\ {| %s |}\n\
     assert TAGSPEC [T= SYSTEM \\ {| %s |}\n"
    v.secret
    (hide [ "reqApp"; "rptUpd" ])
    (hide [ "reqSw"; "rptSw" ])

(* ---------------------------------------------------------------------- *)
(* Seeded identifiers: a pool of ECU-ish stems, suffixed with a draw and the
   position so names are unique. *)

let stems =
  [| "brake"; "door"; "seat"; "lamp"; "hvac"; "gate"; "tpms"; "adas";
     "body"; "gear"; "park"; "horn"; "wipe"; "trim"; "fuel"; "cell" |]

let names st n =
  Array.init n (fun i ->
      Printf.sprintf "%s%d_%d"
        stems.(Random.State.int st (Array.length stems))
        (Random.State.int st 100) i)

(* ---------------------------------------------------------------------- *)
(* ecu-scale: [n] interleaved VMG_i || ECU_i request/response pairs, the
   CSPm form of bench/report.ml's multi_ecu_system. 2^n implementation
   states whatever the seed; the seed permutes pair order and names. *)

let ecu_scale_script ~seed ~n =
  let st = rng seed 2 in
  let ids = names st n in
  let order = shuffle st ids in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  Array.iter
    (fun id ->
      add "channel req_%s, rsp_%s : {0..1}\n" id id;
      add "ECU_%s = req_%s?x -> rsp_%s!x -> ECU_%s\n" id id id id;
      add "VMG_%s = req_%s!0 -> rsp_%s?y -> VMG_%s\n" id id id id;
      add "SPEC_%s = req_%s?x -> rsp_%s!x -> SPEC_%s\n" id id id id)
    ids;
  let join f = String.concat " ||| " (Array.to_list (Array.map f order)) in
  add "SYSTEM = %s\n"
    (join (fun id ->
         Printf.sprintf "(VMG_%s [| {| req_%s, rsp_%s |} |] ECU_%s)" id id id
           id));
  add "SPEC = %s\n" (join (fun id -> "SPEC_" ^ id));
  add "assert SPEC [T= SYSTEM\n";
  Buffer.contents b

(* ---------------------------------------------------------------------- *)
(* daemon-edit: [k] independent request/response components, one assert
   each, every component in one of two variants with the same verdict
   (the second routes the response through a helper definition, so its
   cache key differs). *)

type daemon = {
  ids : string array;
  edits : int array;  (** component flipped by timed job [j mod length] *)
}

let daemon ~seed ~k ~jobs =
  let st = rng seed 3 in
  let ids = names st k in
  { ids; edits = Array.init jobs (fun _ -> Random.State.int st k) }

let daemon_script d variants =
  let b = Buffer.create 16384 in
  let add fmt = Printf.bprintf b fmt in
  Array.iteri
    (fun i id ->
      add "channel q_%s, r_%s : {0..1}\n" id id;
      add "V_%s = q_%s!0 -> r_%s?y -> V_%s\n" id id id id;
      if variants.(i) then begin
        add "E_%s = q_%s?x -> R_%s(x)\n" id id id;
        add "R_%s(x) = r_%s!x -> E_%s\n" id id id
      end
      else add "E_%s = q_%s?x -> r_%s!x -> E_%s\n" id id id id;
      add "S_%s = q_%s?x -> r_%s!x -> S_%s\n" id id id id;
      add "assert S_%s [T= V_%s [| {| q_%s, r_%s |} |] E_%s\n" id id id id id)
    d.ids;
  Buffer.contents b

(* ---------------------------------------------------------------------- *)
(* fleet-trace: the requirement script of examples/ota_traces.csp, kept
   here so the benchmark's input cannot drift with the examples. The MAC
   key is the demo network's shared secret, which Ota.Corpus simulates. *)

let fleet_secret = 5
let fleet_mac v = (v + fleet_secret) mod 8

let fleet_specs =
  Printf.sprintf
    {|channel reqSw : {0..3}
channel rptSw : {0..7}
channel reqApp : {0..7}.{0..7}
channel rptUpd : {0..7}

secret = %d
mac(v) = (v + secret) %% 8

ANY = reqSw?p -> ANY [] rptSw?v -> ANY [] reqApp?v?t -> ANY
      [] rptUpd?v -> ANY
SPEC_ORDER = reqSw?p -> ANY

SPEC_WELLFORMED =
  reqSw!1 -> SPEC_WELLFORMED
  [] rptSw?v -> SPEC_WELLFORMED
  [] ([] v : {0..7} @ reqApp!v!mac(v) -> SPEC_WELLFORMED)
  [] rptUpd?v -> SPEC_WELLFORMED

pow2(n) = if n == 0 then 1 else 2 * pow2(n - 1)
bit(m, v) = (m / pow2(v)) %% 2
grant(m, v) = if bit(m, v) == 1 then m else m + pow2(v)

AUTH(m) =
  reqSw?p -> AUTH(m)
  [] rptSw?v -> AUTH(m)
  [] reqApp?v?t -> (if t == mac(v) then AUTH(grant(m, v)) else AUTH(m))
  [] ([] v : {0..7} @ bit(m, v) == 1 & rptUpd!v -> AUTH(m))
SPEC_AUTH = AUTH(0)
|}
    fleet_secret

let fleet_requirements = [ "SPEC_AUTH"; "SPEC_ORDER"; "SPEC_WELLFORMED" ]
