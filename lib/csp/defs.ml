type t = {
  id : int;
  mutable generation : int;  (* bumped by every declaration *)
  domain_limit : int;
  channels : (string, Ty.t list) Hashtbl.t;
  mutable channel_order : string list;  (* reverse declaration order *)
  types : (string, Ty.def) Hashtbl.t;
  ctors : (string, string * Ty.t list) Hashtbl.t;  (* ctor -> (datatype, args) *)
  procs : (string, string list * Proc.t) Hashtbl.t;
  funcs : (string, string list * Expr.t) Hashtbl.t;
}

exception Duplicate of string
exception Unknown_channel of string

(* Atomic: environments are created and copied on concurrent domains,
   and a duplicated id would alias two environments in every cache keyed
   on it. *)
let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

let create ?(domain_limit = 100_000) () =
  {
    id = fresh_id ();
    generation = 0;
    domain_limit;
    channels = Hashtbl.create 16;
    channel_order = [];
    types = Hashtbl.create 16;
    ctors = Hashtbl.create 16;
    procs = Hashtbl.create 16;
    funcs = Hashtbl.create 16;
  }

let copy t =
  {
    id = fresh_id ();
    generation = t.generation;
    domain_limit = t.domain_limit;
    channels = Hashtbl.copy t.channels;
    channel_order = t.channel_order;
    types = Hashtbl.copy t.types;
    ctors = Hashtbl.copy t.ctors;
    procs = Hashtbl.copy t.procs;
    funcs = Hashtbl.copy t.funcs;
  }

let check_fresh tbl kind name =
  if Hashtbl.mem tbl name then raise (Duplicate (kind ^ " " ^ name))

let declare_channel t name tys =
  check_fresh t.channels "channel" name;
  t.generation <- t.generation + 1;
  Hashtbl.replace t.channels name tys;
  t.channel_order <- name :: t.channel_order

let declare_datatype t name ctors =
  check_fresh t.types "type" name;
  List.iter (fun (c, _) -> check_fresh t.ctors "constructor" c) ctors;
  t.generation <- t.generation + 1;
  Hashtbl.replace t.types name (Ty.Variants ctors);
  List.iter (fun (c, args) -> Hashtbl.replace t.ctors c (name, args)) ctors

let declare_nametype t name ty =
  check_fresh t.types "type" name;
  t.generation <- t.generation + 1;
  Hashtbl.replace t.types name (Ty.Alias ty)

let define_proc t name params body =
  check_fresh t.procs "process" name;
  Hashtbl.replace t.procs name (params, body)

let define_fun t name params body =
  check_fresh t.funcs "function" name;
  Hashtbl.replace t.funcs name (params, body)

let id t = t.id
let generation t = t.generation

let channel_type t name = Hashtbl.find_opt t.channels name

let channels t =
  List.rev_map (fun c -> c, Hashtbl.find t.channels c) t.channel_order

let proc t name = Hashtbl.find_opt t.procs name

let procs t =
  Hashtbl.fold (fun name def acc -> (name, def) :: acc) t.procs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let ty_lookup t name = Hashtbl.find_opt t.types name

let fenv t name = Hashtbl.find_opt t.funcs name

let funcs t =
  Hashtbl.fold (fun name def acc -> (name, def) :: acc) t.funcs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_ctor t c = Hashtbl.find_opt t.ctors c

let datatypes t =
  Hashtbl.fold
    (fun name def acc ->
      match def with
      | Ty.Variants ctors -> (name, ctors) :: acc
      | Ty.Alias _ -> acc)
    t.types []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let nametypes t =
  Hashtbl.fold
    (fun name def acc ->
      match def with
      | Ty.Alias ty -> (name, ty) :: acc
      | Ty.Variants _ -> acc)
    t.types []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let field_types t chan =
  match channel_type t chan with
  | Some tys -> tys
  | None -> raise (Unknown_channel chan)

let domain_limit t = t.domain_limit
let domain t ty = Ty.domain ~limit:t.domain_limit (ty_lookup t) ty

let field_domain t ~chan i =
  let tys = field_types t chan in
  match List.nth_opt tys i with
  | Some ty -> Ty.domain ~limit:t.domain_limit (ty_lookup t) ty
  | None ->
    invalid_arg
      (Printf.sprintf "Defs.field_domain: channel %s has no field %d" chan i)

let chan_events t chan =
  let tys = field_types t chan in
  let domains = List.map (Ty.domain ~limit:t.domain_limit (ty_lookup t)) tys in
  let rec product = function
    | [] -> [ [] ]
    | dom :: rest ->
      let tails = product rest in
      List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) dom
  in
  List.map (fun args -> Event.event chan args) (product domains)

let events_of t set = Eventset.enumerate ~chan_events:(chan_events t) set

let alphabet t =
  List.concat_map (fun (c, _) -> chan_events t c) (channels t)
