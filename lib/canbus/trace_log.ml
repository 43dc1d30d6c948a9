type direction =
  | Tx
  | Rx of string
  | Fault of string

type entry = {
  time : int;
  node : string;
  direction : direction;
  frame : Frame.t;
}

(* Dynamic array, chronological order. The previous representation was a
   reverse-chronological list, which forced [entries] (an O(n) reversal
   plus a second O(n) list) onto every consumer; corpora of millions of
   entries want in-order streaming without materialisation. *)
type t = {
  mutable store : entry array;
  mutable len : int;
}

let dummy =
  { time = 0; node = ""; direction = Tx; frame = Frame.make ~id:0 [] }

let create () = { store = [||]; len = 0 }

let record t entry =
  let cap = Array.length t.store in
  if t.len = cap then begin
    let store = Array.make (max 16 (2 * cap)) dummy in
    Array.blit t.store 0 store 0 t.len;
    t.store <- store
  end;
  t.store.(t.len) <- entry;
  t.len <- t.len + 1

let length t = t.len

let clear t =
  t.store <- [||];
  t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.store.(i)
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let entries t = List.rev (fold t ~init:[] (fun acc e -> e :: acc))

let transmissions t =
  List.rev
    (fold t ~init:[] (fun acc e ->
         if e.direction = Tx then e :: acc else acc))

let faults t =
  List.rev
    (fold t ~init:[] (fun acc e ->
         match e.direction with Fault _ -> e :: acc | _ -> acc))

let pp_entry ppf e =
  let dir =
    match e.direction with
    | Tx -> "tx"
    | Rx receiver -> "rx->" ^ receiver
    | Fault kind -> "fault:" ^ kind
  in
  Format.fprintf ppf "%8d us  %-10s %-12s %a" e.time e.node dir Frame.pp
    e.frame

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
    pp_entry ppf (entries t)

(* can-trace/1 codec.

   One entry per JSON object, compact keys, fixed field order so a
   decode/encode round trip is byte-identical:
     {"t":<us>,"n":<node>,"d":"tx"|"rx:<node>"|"fault:<kind>",
      "id":<can id>,["ext":true,]"data":[<bytes>]}
   ["ext"] is present only for extended-format frames; ["data"] always
   carries exactly [dlc] bytes. *)

let schema = "can-trace/1"

let string_of_direction = function
  | Tx -> "tx"
  | Rx receiver -> "rx:" ^ receiver
  | Fault kind -> "fault:" ^ kind

let direction_of_string s =
  let rest prefix =
    let lp = String.length prefix in
    String.sub s lp (String.length s - lp)
  in
  if s = "tx" then Ok Tx
  else if String.starts_with ~prefix:"rx:" s then Ok (Rx (rest "rx:"))
  else if String.starts_with ~prefix:"fault:" s then Ok (Fault (rest "fault:"))
  else Error (Printf.sprintf "unknown direction %S" s)

let entry_to_json e =
  let open Obs.Json in
  let data =
    List (Array.to_list (Array.map (fun b -> Num (float_of_int b)) e.frame.Frame.data))
  in
  let fields =
    [
      ("t", Num (float_of_int e.time));
      ("n", Str e.node);
      ("d", Str (string_of_direction e.direction));
      ("id", Num (float_of_int e.frame.Frame.id));
    ]
    @ (if e.frame.Frame.extended then [ ("ext", Bool true) ] else [])
    @ [ ("data", data) ]
  in
  Obj fields

type data_field =
  | Bytes of int list
  | Non_integer_byte
  | Not_an_array

let missing name = Error (Printf.sprintf "missing or ill-typed field %S" name)

(* The one validation sequence: the order in which fields are checked
   decides which reason a line with several faults reports. *)
let entry_of_fields ~time ~node ~direction ~id ~extended ~data =
  match time with
  | None -> missing "t"
  | Some time -> (
    match node with
    | None -> missing "n"
    | Some node -> (
      match direction with
      | None -> missing "d"
      | Some d -> (
        match direction_of_string d with
        | Error reason -> Error reason
        | Ok direction -> (
          match id with
          | None -> missing "id"
          | Some id -> (
            match data with
            | Not_an_array -> missing "data"
            | Non_integer_byte -> Error "non-integer data byte"
            | Bytes bytes -> (
              if time < 0 then Error "negative timestamp"
              else
                match Frame.make ~extended ~id bytes with
                | frame -> Ok { time; node; direction; frame }
                | exception Frame.Invalid_frame reason -> Error reason))))))

let entry_of_json json =
  let open Obs.Json in
  let field name conv = Option.bind (member name json) conv in
  entry_of_fields ~time:(field "t" to_int) ~node:(field "n" to_str)
    ~direction:(field "d" to_str) ~id:(field "id" to_int)
    ~extended:(match member "ext" json with Some (Bool b) -> b | _ -> false)
    ~data:
      (match member "data" json with
       | Some (List items) ->
         let bytes = List.filter_map to_int items in
         if List.compare_lengths bytes items = 0 then Bytes bytes
         else Non_integer_byte
       | _ -> Not_an_array)
