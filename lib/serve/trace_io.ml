let schema = Canbus.Trace_log.schema

type header = {
  generator : string option;
  seed : int option;
  dbc : string option;
}

let empty_header = { generator = None; seed = None; dbc = None }

let header_to_json h =
  let open Obs.Json in
  Obj
    (("schema", Str schema)
    :: ((match h.generator with
         | Some g -> [ ("generator", Str g) ]
         | None -> [])
       @ (match h.seed with
          | Some s -> [ ("seed", Num (float_of_int s)) ]
          | None -> [])
       @ match h.dbc with Some d -> [ ("dbc", Str d) ] | None -> []))

let header_of_line line =
  let open Obs.Json in
  match parse line with
  | Error msg -> Error ("corpus header is not JSON: " ^ msg)
  | Ok json -> (
    let str k = Option.bind (member k json) to_str in
    match str "schema" with
    | Some s when String.equal s schema ->
      Ok
        {
          generator = str "generator";
          seed = Option.bind (member "seed" json) to_int;
          dbc = str "dbc";
        }
    | Some s ->
      Error (Printf.sprintf "unsupported corpus schema %S (want %S)" s schema)
    | None -> Error "corpus header has no \"schema\"")

type line =
  | Meta of { stream : string; meta : Obs.Json.t }
  | Entry of { stream : string; entry : Canbus.Trace_log.entry }
  | Malformed of { stream : string option; reason : string }

(* The members a post-header line may carry, filled straight from the
   input in one pass: no tree is built for an entry line. A bit of [seen]
   marks a key's first occurrence; later duplicates are read and dropped,
   so the first one wins, as with [Obs.Json.member]. *)
type fields = {
  mutable seen : int;
  mutable stream : string option;
  mutable meta : Obs.Json.t option;
  mutable time : int option;
  mutable node : string option;
  mutable direction : string option;
  mutable id : int option;
  mutable extended : bool;
  mutable data : Canbus.Trace_log.data_field;
}

let bit_of_key = function
  | "s" -> 1
  | "meta" -> 2
  | "t" -> 4
  | "n" -> 8
  | "d" -> 16
  | "id" -> 32
  | "ext" -> 64
  | "data" -> 128
  | _ -> 0

let read_data r =
  let open Obs.Json in
  if looking_at r '[' then begin
    let integral = ref true in
    let bytes =
      fold_array r [] (fun r acc ->
          match read_int r with
          | Some b -> b :: acc
          | None ->
            integral := false;
            acc)
    in
    if !integral then Canbus.Trace_log.Bytes (List.rev bytes)
    else Canbus.Trace_log.Non_integer_byte
  end
  else begin
    ignore (read_value r);
    Canbus.Trace_log.Not_an_array
  end

let read_member r key f =
  let open Obs.Json in
  let bit = bit_of_key key in
  if bit = 0 || f.seen land bit <> 0 then ignore (read_value r)
  else begin
    f.seen <- f.seen lor bit;
    match bit with
    | 1 -> f.stream <- read_str r
    | 2 -> f.meta <- Some (read_value r)
    | 4 -> f.time <- read_int r
    | 8 -> f.node <- read_str r
    | 16 -> f.direction <- read_str r
    | 32 -> f.id <- read_int r
    | 64 -> f.extended <- (match read_value r with Bool b -> b | _ -> false)
    | _ -> f.data <- read_data r
  end;
  f

let read_fields r =
  let f =
    {
      seen = 0;
      stream = None;
      meta = None;
      time = None;
      node = None;
      direction = None;
      id = None;
      extended = false;
      data = Canbus.Trace_log.Not_an_array;
    }
  in
  if Obs.Json.looking_at r '{' then Obs.Json.fold_object r f read_member
  else begin
    ignore (Obs.Json.read_value r);
    f
  end

(* Classify one post-header line. Corrupt input comes back as
   [Malformed] — attributed to its stream when the ["s"] field is still
   recoverable — never as an exception: one truncated line must cost one
   stream, not the batch (the [Cache] corrupt-file-degrades-to-miss
   policy, applied to corpora). *)
let parse_line raw =
  match Obs.Json.read raw read_fields with
  | Error msg -> Malformed { stream = None; reason = "not JSON: " ^ msg }
  | Ok { stream = None; _ } ->
    Malformed { stream = None; reason = "line has no stream \"s\"" }
  | Ok { stream = Some stream; meta = Some meta; _ } -> Meta { stream; meta }
  | Ok ({ stream = Some stream; meta = None; _ } as f) -> (
    match
      Canbus.Trace_log.entry_of_fields ~time:f.time ~node:f.node
        ~direction:f.direction ~id:f.id ~extended:f.extended ~data:f.data
    with
    | Ok entry -> Entry { stream; entry }
    | Error reason -> Malformed { stream = Some stream; reason })

(* {1 Writing} *)

type writer = { oc : out_channel }

let write_json w json =
  output_string w.oc (Obs.Json.to_string json);
  output_char w.oc '\n'

let write_meta w ~stream meta =
  write_json w (Obs.Json.Obj [ ("s", Obs.Json.Str stream); ("meta", meta) ])

let write_entry w ~stream entry =
  match Canbus.Trace_log.entry_to_json entry with
  | Obs.Json.Obj fields ->
    write_json w (Obs.Json.Obj (("s", Obs.Json.Str stream) :: fields))
  | json -> write_json w json

let with_writer ~path ~header f =
  let result = ref None in
  Fsio.with_atomic_out ~path (fun oc ->
      let w = { oc } in
      write_json w (header_to_json header);
      result := Some (f w));
  match !result with
  | Some r -> r
  | None -> invalid_arg "Trace_io.with_writer: writer did not run"

(* {1 Reading} *)

let with_in path f =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
  | exception Sys_error msg -> Error msg

let read_header ~path =
  with_in path (fun ic ->
      match input_line ic with
      | exception End_of_file -> Error "empty corpus (no header line)"
      | first -> header_of_line first)

let fold_lines ~path ~init f =
  with_in path (fun ic ->
      match input_line ic with
      | exception End_of_file -> Error "empty corpus (no header line)"
      | first -> (
        match header_of_line first with
        | Error _ as e -> e
        | Ok header ->
          let rec loop line_no acc =
            match input_line ic with
            | exception End_of_file -> Ok (acc, header)
            | raw -> loop (line_no + 1) (f acc ~line_no raw)
          in
          loop 2 init))

let fold ~path ~init f =
  fold_lines ~path ~init (fun acc ~line_no raw ->
      f acc ~line_no (parse_line raw))
