(* Shared fixtures for the CSP engine tests: a small standard environment,
   event/process builders, and a QCheck generator of random well-formed
   ground processes used by the differential and round-trip properties. *)

open Csp

(* Channels: a, b, c carry one small int; tick-free [done_] is a bare
   event channel. *)
let make_defs () =
  let defs = Defs.create () in
  Defs.declare_channel defs "a" [ Ty.Int_range (0, 2) ];
  Defs.declare_channel defs "b" [ Ty.Int_range (0, 2) ];
  Defs.declare_channel defs "c" [ Ty.Int_range (0, 1) ];
  Defs.declare_channel defs "done_" [];
  defs

(* Substring containment, for asserting on error-message contents. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* A fixture's text, from the test directory or the repository root. *)
let read_fixture name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "fixtures" name;
        Filename.concat "test" (Filename.concat "fixtures" name) ]
  in
  In_channel.with_open_bin path In_channel.input_all

let ev chan n = Event.event chan [ Value.Int n ]
let ev0 chan = Event.event chan []

let send chan n p = Proc.send chan [ Value.Int n ] p

(* Labels helper *)
let vis chan n = Event.Vis (ev chan n)

let label = Alcotest.testable Event.pp_label Event.equal_label

let proc_testable = Alcotest.testable Proc.pp Proc.equal

let sorted_initials defs p = Semantics.initials defs p

(* ------------------------------------------------------------------ *)
(* Random ground processes over the standard environment.              *)
(* ------------------------------------------------------------------ *)

let gen_eventset : Eventset.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun c -> Eventset.chan c) (oneofl [ "a"; "b"; "c" ]);
      return (Eventset.chans [ "a"; "b" ]);
      return Eventset.empty;
      map (fun n -> Eventset.events [ ev "a" n ]) (int_range 0 2);
    ]

let gen_proc_upto max_size : Proc.t QCheck.Gen.t =
  let open QCheck.Gen in
  let chan_gen = oneofl [ "a", 2; "b", 2; "c", 1 ] in
  let leaf =
    oneof
      [
        return Proc.stop;
        return Proc.skip;
        map
          (fun (chan, hi) -> send chan hi Proc.stop)
          chan_gen;
      ]
  in
  sized_size (int_range 0 max_size) @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            1, leaf;
            3,
            map2
              (fun (chan, hi) p ->
                let v = hi in
                send chan v p)
              chan_gen (self (n - 1));
            2,
            map
              (fun p -> Proc.prefix_items ("a", [ Proc.In ("x", None) ], p))
              (self (n - 1));
            2, map2 (fun p q -> Proc.ext (p, q)) (self (n / 2)) (self (n / 2));
            2, map2 (fun p q -> Proc.intc (p, q)) (self (n / 2)) (self (n / 2));
            2, map2 (fun p q -> Proc.seq (p, q)) (self (n / 2)) (self (n / 2));
            2,
            map3
              (fun p s q -> Proc.par (p, s, q))
              (self (n / 2)) gen_eventset (self (n / 2));
            1, map2 (fun p q -> Proc.inter (p, q)) (self (n / 2)) (self (n / 2));
            1, map2 (fun p s -> Proc.hide (p, s)) (self (n - 1)) gen_eventset;
          ])

(* Sizes are capped at 8 in [gen_proc]: trace-set computations are
   exponential in term size by nature. *)
let gen_proc = gen_proc_upto 8
let arb_proc = QCheck.make ~print:Proc.to_string gen_proc

(* ------------------------------------------------------------------ *)
(* Random definition sets: named compositions and calls to them.       *)
(* ------------------------------------------------------------------ *)

(* One to three parameterless names [N0], [N1], ... whose bodies are
   [|||], [[| |]], [[ || ]] or [\] compositions of [gen_proc] terms and of
   calls to earlier names (so no recursion is unguarded), and a root that
   composes calls to them beside terms over the same channels. The raw stepper
   keeps a call in its state term until that component first moves, so
   such roots reach states where some calls stay unstepped while their
   siblings move. A body's right operand is always a term, so nesting
   grows the state space by a factor per name, not by a power. *)
type def_set = { procs : (string * Proc.t) list; root : Proc.t }

let def_set_defs ds =
  let defs = make_defs () in
  List.iter (fun (name, body) -> Defs.define_proc defs name [] body) ds.procs;
  defs

let print_def_set ds =
  String.concat "\n"
    (List.map
       (fun (name, body) -> name ^ " = " ^ Proc.to_string body)
       ds.procs
    @ [ "root = " ^ Proc.to_string ds.root ])

let gen_def_set : def_set QCheck.Gen.t =
  let open QCheck.Gen in
  let term = gen_proc_upto 3 in
  let alphabets = pair gen_eventset gen_eventset in
  let compose left right =
    frequency
      [
        2, map2 (fun p q -> Proc.inter (p, q)) left right;
        3, map3 (fun p s q -> Proc.par (p, s, q)) left gen_eventset right;
        2, map3 (fun p (a, b) q -> Proc.apar (p, a, b, q)) left alphabets right;
        1, map2 (fun p s -> Proc.hide (p, s)) left gen_eventset;
      ]
  in
  let call names = map (fun n -> Proc.call (n, [])) (oneofl names) in
  int_range 1 3 >>= fun count ->
  let rec bodies k acc =
    if k = count then return (List.rev acc)
    else
      let earlier = List.map fst acc in
      let operand =
        if earlier = [] then term
        else frequency [ 2, term; 1, call earlier ]
      in
      compose operand term >>= fun body ->
      bodies (k + 1) ((Printf.sprintf "N%d" k, body) :: acc)
  in
  bodies 0 [] >>= fun procs ->
  let names = List.map fst procs in
  let operand = frequency [ 2, call names; 1, term ] in
  frequency
    [
      4, map3 (fun c s q -> Proc.par (c, s, q)) (call names) gen_eventset operand;
      2,
      map3
        (fun c (a, b) q -> Proc.apar (c, a, b, q))
        (call names) alphabets operand;
      2, map2 (fun c q -> Proc.inter (c, q)) (call names) operand;
      1,
      map2
        (fun r s -> Proc.hide (r, s))
        (map3 (fun q s c -> Proc.par (q, s, c)) term gen_eventset (call names))
        gen_eventset;
      1, call names;
    ]
  >|= fun root -> { procs; root }

let arb_def_set = QCheck.make ~print:print_def_set gen_def_set

(* ------------------------------------------------------------------ *)
(* Byte mutations of JSON lines, for the decoder properties.           *)
(* ------------------------------------------------------------------ *)

(* Bytes a mutation writes: JSON's structural and number characters more
   often than chance would pick them. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (3, map Char.chr (int_range 0 255));
        ( 7,
          oneofl
            (List.of_seq (String.to_seq "{}[]\":,\\-+.eE0123456789 tfnu")) );
      ])

(* One mutation of [s]: a byte substituted, a truncation, a byte
   inserted, up to four bytes deleted, or the tail replaced by the tail
   of another line of [pool]. *)
let mutate ~pool =
  let open QCheck.Gen in
  let at s = int_range 0 (String.length s) in
  fun s ->
    frequency
      [
        ( 3,
          if s = "" then return s
          else
            let* i = int_range 0 (String.length s - 1) in
            let* c = gen_byte in
            return (String.mapi (fun j d -> if j = i then c else d) s) );
        (2, map (fun i -> String.sub s 0 i) (at s));
        ( 2,
          let* i = at s in
          let* c = gen_byte in
          return
            (String.sub s 0 i ^ String.make 1 c
            ^ String.sub s i (String.length s - i)) );
        ( 2,
          if s = "" then return s
          else
            let* i = int_range 0 (String.length s - 1) in
            let* len = int_range 1 (min 4 (String.length s - i)) in
            return
              (String.sub s 0 i
              ^ String.sub s (i + len) (String.length s - i - len)) );
        ( 1,
          let* other = map (fun () -> Lazy.force pool) unit >>= oneofa in
          let* i = at s in
          let* j = at other in
          return
            (String.sub s 0 i ^ String.sub other j (String.length other - j))
        );
      ]

(* Values a field decoder must classify: beyond the exact integer range,
   null, an empty array, a negative count. *)
let gen_token = QCheck.Gen.oneofl [ "1e19"; "null"; "[]"; "-1" ]

(* A token spliced in as the value of a field (from one of [s]'s colons
   to the next comma or closing brace), or anywhere. *)
let splice_token s =
  let open QCheck.Gen in
  let colons =
    List.filter (fun i -> s.[i] = ':') (List.init (String.length s) Fun.id)
  in
  let* token = gen_token in
  let* at_field = bool in
  if at_field && colons <> [] then
    let* i = oneofl colons in
    let rec value_end j =
      if j >= String.length s || s.[j] = ',' || s.[j] = '}' then j
      else value_end (j + 1)
    in
    let j = value_end (i + 1) in
    return
      (String.sub s 0 (i + 1) ^ token ^ String.sub s j (String.length s - j))
  else
    let* i = int_range 0 (String.length s) in
    return (String.sub s 0 i ^ token ^ String.sub s i (String.length s - i))

(* A line of [pool] after zero to three mutations, each a [mutate] or a
   [splice_token]. *)
let gen_mutated ~pool =
  let open QCheck.Gen in
  let* base = map (fun () -> Lazy.force pool) unit >>= oneofa in
  let* rounds = int_range 0 3 in
  let step s = frequency [ (4, mutate ~pool s); (2, splice_token s) ] in
  let rec go k s = if k = 0 then return s else step s >>= go (k - 1) in
  go rounds base
