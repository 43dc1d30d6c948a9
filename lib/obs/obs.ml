(* Observability: spans, metrics, sinks. The silent handle must cost one
   branch per operation on the engine's hot paths, so every mutable piece
   hangs off an [active] flag checked first. Counters and histograms are
   atomic (worker domains update them concurrently); span bookkeeping and
   sink writes share one mutex. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_num buf f =
    (* Integral values print as integers up to 2^53, the last float whose
       integer neighbourhood is exact — checkpoint digests are 52-bit and
       must survive the round trip bit-for-bit. *)
    if Float.is_integer f && Float.abs f < 9007199254740992. then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.9g" f)

  let rec to_buffer buf v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> add_escaped buf s
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buffer buf v;
    Buffer.contents buf

  exception Bad of int * string

  (* The parser is a reader — the input and a position — plus top-level
     functions over it, so a decoder can read the fields it wants straight
     from the input while the grammar still lives only here. Every reading
     function skips leading whitespace first; a syntax error raises [Bad]
     at the offending byte, which [read] turns into the error string. *)
  type reader = { src : string; mutable pos : int }

  let fail r msg = raise (Bad (r.pos, msg))
  let[@inline] at r c = r.pos < String.length r.src && r.src.[r.pos] = c

  (* Every token is preceded by a whitespace skip, and compact NDJSON has
     none: the inlined test is the whole cost of the common case. *)
  let rec skip_more r =
    r.pos <- r.pos + 1;
    if r.pos < String.length r.src then
      match r.src.[r.pos] with
      | ' ' | '\t' | '\n' | '\r' -> skip_more r
      | _ -> ()

  let[@inline] skip_ws r =
    if r.pos < String.length r.src then
      match r.src.[r.pos] with
      | ' ' | '\t' | '\n' | '\r' -> skip_more r
      | _ -> ()

  let looking_at r c =
    skip_ws r;
    at r c

  let expected r c = fail r (Printf.sprintf "expected '%c'" c)
  let[@inline] expect r c = if at r c then r.pos <- r.pos + 1 else expected r c

  let rec same_at s i word j =
    j = String.length word || (s.[i + j] = word.[j] && same_at s i word (j + 1))

  let literal r word v =
    if r.pos + String.length word <= String.length r.src
       && same_at r.src r.pos word 0
    then begin
      r.pos <- r.pos + String.length word;
      v
    end
    else fail r (Printf.sprintf "expected %s" word)

  (* The rest of a string holding an escape, from the first backslash on,
     through a buffer that already has the plain prefix. *)
  let read_escaped r buf =
    let s = r.src and n = String.length r.src in
    let advance () = r.pos <- r.pos + 1 in
    let rec go () =
      if r.pos >= n then fail r "unterminated string"
      else
        match s.[r.pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if r.pos >= n then fail r "bad escape"
           else
             match s.[r.pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
               advance ();
               if r.pos + 4 > n then fail r "truncated \\u escape";
               let hex = String.sub s r.pos 4 in
               (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail r "bad \\u escape"
                | Some code ->
                  r.pos <- r.pos + 4;
                  (* encode the BMP code point as UTF-8 *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end)
             | _ -> fail r "bad escape");
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf

  let rec plain_end s i =
    if i < String.length s && s.[i] <> '"' && s.[i] <> '\\' then
      plain_end s (i + 1)
    else i

  (* A string without escapes is one [String.sub]. *)
  let read_string r =
    expect r '"';
    let start = r.pos in
    let stop = plain_end r.src start in
    r.pos <- stop;
    if stop >= String.length r.src then fail r "unterminated string"
    else if r.src.[stop] = '"' then begin
      r.pos <- stop + 1;
      String.sub r.src start (stop - start)
    end
    else begin
      let buf = Buffer.create 16 in
      Buffer.add_substring buf r.src start (stop - start);
      read_escaped r buf
    end

  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false

  (* A number token is the maximal run of number characters; returns its
     start and leaves the reader after it. *)
  let scan_number r =
    let start = r.pos in
    while r.pos < String.length r.src && is_num_char r.src.[r.pos] do
      r.pos <- r.pos + 1
    done;
    start

  (* [-]d..d with 1 to 15 digits is exact as a float, so it is read
     without one; [not_plain] marks every other token. *)
  let not_plain = min_int

  let rec digits s i stop acc =
    if i = stop then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> digits s (i + 1) stop ((acc * 10) + Char.code c - 48)
      | _ -> not_plain

  let plain_int s start stop =
    let neg = start < stop && s.[start] = '-' in
    let first = if neg then start + 1 else start in
    if stop - first < 1 || stop - first > 15 then not_plain
    else
      let v = digits s first stop 0 in
      if neg && v <> not_plain then -v else v

  (* Every other token is whatever [float_of_string_opt] makes of it. *)
  let float_token r start =
    match float_of_string_opt (String.sub r.src start (r.pos - start)) with
    | Some f -> f
    | None -> fail r "bad number"

  let read_number r =
    let start = scan_number r in
    match plain_int r.src start r.pos with
    | v when v = not_plain -> Num (float_token r start)
    | 0 when r.src.[start] = '-' -> Num (-0.)
    | v -> Num (float_of_int v)

  (* Integral values print exactly up to 2^53 (see [add_num]); beyond it
     [int_of_float] is not an integer conversion at all. *)
  let int_of_float_opt f =
    if Float.is_integer f && Float.abs f < 9007199254740992. then
      Some (int_of_float f)
    else None

  let to_int v = match v with Num f -> int_of_float_opt f | _ -> None

  let rec fields r f acc =
    skip_ws r;
    let k = read_string r in
    skip_ws r;
    expect r ':';
    let acc = f r k acc in
    skip_ws r;
    if at r ',' then begin
      r.pos <- r.pos + 1;
      fields r f acc
    end
    else if at r '}' then begin
      r.pos <- r.pos + 1;
      acc
    end
    else fail r "expected ',' or '}'"

  let fold_object r init f =
    skip_ws r;
    expect r '{';
    skip_ws r;
    if at r '}' then begin
      r.pos <- r.pos + 1;
      init
    end
    else fields r f init

  let rec items r f acc =
    let acc = f r acc in
    skip_ws r;
    if at r ',' then begin
      r.pos <- r.pos + 1;
      items r f acc
    end
    else if at r ']' then begin
      r.pos <- r.pos + 1;
      acc
    end
    else fail r "expected ',' or ']'"

  let fold_array r init f =
    skip_ws r;
    expect r '[';
    skip_ws r;
    if at r ']' then begin
      r.pos <- r.pos + 1;
      init
    end
    else items r f init

  let rec read_value r =
    skip_ws r;
    if r.pos >= String.length r.src then fail r "unexpected end of input"
    else
      match r.src.[r.pos] with
      | '"' -> Str (read_string r)
      | 't' -> literal r "true" (Bool true)
      | 'f' -> literal r "false" (Bool false)
      | 'n' -> literal r "null" Null
      | '{' ->
        let member r k acc = (k, read_value r) :: acc in
        Obj (List.rev (fold_object r [] member))
      | '[' ->
        List (List.rev (fold_array r [] (fun r acc -> read_value r :: acc)))
      | _ -> read_number r

  let read_int r =
    skip_ws r;
    if r.pos >= String.length r.src then fail r "unexpected end of input"
    else
      match r.src.[r.pos] with
      | '"' | 't' | 'f' | 'n' | '{' | '[' -> to_int (read_value r)
      | _ -> (
        let start = scan_number r in
        match plain_int r.src start r.pos with
        | v when v = not_plain -> int_of_float_opt (float_token r start)
        | v -> Some v)

  let read_str r =
    if looking_at r '"' then Some (read_string r)
    else begin
      ignore (read_value r);
      None
    end

  let read s f =
    let r = { src = s; pos = 0 } in
    match
      let v = f r in
      skip_ws r;
      if r.pos <> String.length s then fail r "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

  let parse s = read s read_value

  let rec assoc k = function
    | [] -> None
    | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

  let member k v = match v with Obj fields -> assoc k fields | _ -> None

  let to_float v = match v with Num f -> Some f | _ -> None

  let to_str v = match v with Str s -> Some s | _ -> None
end

type sink =
  | Silent
  | Console of Format.formatter
  | Jsonl of out_channel

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_active : bool; cell : int Atomic.t }

type gauge = { g_active : bool; level : float Atomic.t }

type hist_state = {
  bounds : float array;  (* sorted upper bounds; overflow bucket implicit *)
  counts : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  (* sum is kept in microunits to stay atomic without a lock; precise
     enough for the duration/size scales observed here *)
  sum_micro : int Atomic.t;
  observations : int Atomic.t;
}

type histogram = { h_active : bool; h : hist_state }

type cell =
  | C of int Atomic.t
  | G of float Atomic.t
  | H of hist_state

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
      sum : float;
      observations : int;
    }

type t = {
  sink : sink;
  registry : (string, cell) Hashtbl.t;
  mutex : Mutex.t;
  mutable depth : int;  (* open spans; approximate across domains *)
  t0 : float;  (* handle creation time: span timestamps are relative *)
}

let make sink =
  {
    sink;
    registry = Hashtbl.create 32;
    mutex = Mutex.create ();
    depth = 0;
    t0 = now ();
  }

let silent = make Silent
let create sink = match sink with Silent -> silent | _ -> make sink
let is_silent t = match t.sink with Silent -> true | _ -> false

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let dummy_counter = { c_active = false; cell = Atomic.make 0 }
let dummy_gauge = { g_active = false; level = Atomic.make 0. }

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

let dummy_histogram =
  {
    h_active = false;
    h =
      {
        bounds = default_buckets;
        counts = Array.init (Array.length default_buckets + 1) (fun _ -> Atomic.make 0);
        sum_micro = Atomic.make 0;
        observations = Atomic.make 0;
      };
  }

(* Register-or-find under the mutex; mismatched kinds for one name are a
   programming error worth failing loudly on. *)
let register t name build check =
  locked t (fun () ->
      match Hashtbl.find_opt t.registry name with
      | Some cell -> check cell
      | None ->
        let cell = build () in
        Hashtbl.replace t.registry name cell;
        check cell)

let counter t name =
  if is_silent t then dummy_counter
  else
    register t name
      (fun () -> C (Atomic.make 0))
      (fun cell ->
        match cell with
        | C cell -> { c_active = true; cell }
        | _ -> invalid_arg ("Obs.counter: " ^ name ^ " is not a counter"))

let incr c = if c.c_active then ignore (Atomic.fetch_and_add c.cell 1)
let add c n = if c.c_active then ignore (Atomic.fetch_and_add c.cell n)
let counter_value c = Atomic.get c.cell

let gauge t name =
  if is_silent t then dummy_gauge
  else
    register t name
      (fun () -> G (Atomic.make 0.))
      (fun cell ->
        match cell with
        | G level -> { g_active = true; level }
        | _ -> invalid_arg ("Obs.gauge: " ^ name ^ " is not a gauge"))

let set g v = if g.g_active then Atomic.set g.level v
let gauge_value g = Atomic.get g.level

let histogram ?(buckets = default_buckets) t name =
  if is_silent t then dummy_histogram
  else
    register t name
      (fun () ->
        let bounds = Array.copy buckets in
        Array.sort compare bounds;
        H
          {
            bounds;
            counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            sum_micro = Atomic.make 0;
            observations = Atomic.make 0;
          })
      (fun cell ->
        match cell with
        | H h -> { h_active = true; h }
        | _ -> invalid_arg ("Obs.histogram: " ^ name ^ " is not a histogram"))

let bucket_index bounds v =
  (* first bucket whose upper bound admits v; linear scan — bucket counts
     are small and fixed *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe hg v =
  if hg.h_active then begin
    let h = hg.h in
    ignore (Atomic.fetch_and_add h.counts.(bucket_index h.bounds v) 1);
    ignore (Atomic.fetch_and_add h.sum_micro (int_of_float (v *. 1e6)));
    ignore (Atomic.fetch_and_add h.observations 1)
  end

let hist_snapshot h =
  let buckets =
    List.init
      (Array.length h.counts)
      (fun i ->
        let bound =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        bound, Atomic.get h.counts.(i))
  in
  ( buckets,
    float_of_int (Atomic.get h.sum_micro) /. 1e6,
    Atomic.get h.observations )

let histogram_counts hg =
  let buckets, _, _ = hist_snapshot hg.h in
  buckets

let histogram_sum hg =
  let _, sum, _ = hist_snapshot hg.h in
  sum

let histogram_observations hg = Atomic.get hg.h.observations

let metrics t =
  if is_silent t then []
  else
    locked t (fun () ->
        Hashtbl.fold
          (fun name cell acc ->
            let m =
              match cell with
              | C c -> Counter (Atomic.get c)
              | G g -> Gauge (Atomic.get g)
              | H h ->
                let buckets, sum, observations = hist_snapshot h in
                Histogram { buckets; sum; observations }
            in
            (name, m) :: acc)
          t.registry [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let emit_json t obj =
  match t.sink with
  | Jsonl oc ->
    locked t (fun () ->
        output_string oc (Json.to_string (Json.Obj obj));
        output_char oc '\n')
  | _ -> ()

let event t name fields =
  match t.sink with
  | Silent -> ()
  | Jsonl _ ->
    emit_json t (("ev", Json.Str "event") :: ("name", Json.Str name) :: fields)
  | Console ppf ->
    locked t (fun () ->
        Format.fprintf ppf "[obs] %s%a@." name
          (fun ppf fields ->
            List.iter
              (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
              fields)
          fields)

let span t name f =
  match t.sink with
  | Silent -> f ()
  | sink ->
    let start = now () in
    let depth = locked t (fun () ->
        let d = t.depth in
        t.depth <- d + 1;
        d)
    in
    Fun.protect
      ~finally:(fun () ->
        let dur = now () -. start in
        match sink with
        | Silent -> ()
        | Jsonl _ ->
          locked t (fun () -> t.depth <- t.depth - 1);
          emit_json t
            [
              "ev", Json.Str "span";
              "name", Json.Str name;
              "depth", Json.Num (float_of_int depth);
              "start_s", Json.Num (start -. t.t0);
              "dur_s", Json.Num dur;
            ]
        | Console ppf ->
          locked t (fun () ->
              t.depth <- t.depth - 1;
              Format.fprintf ppf "[obs] %s%s: %.3f ms@."
                (String.make (2 * depth) ' ')
                name (dur *. 1e3)))
      f

let flush t =
  match t.sink with
  | Silent -> ()
  | Jsonl oc ->
    List.iter
      (fun (name, m) ->
        match m with
        | Counter v ->
          emit_json t
            [
              "ev", Json.Str "counter";
              "name", Json.Str name;
              "value", Json.Num (float_of_int v);
            ]
        | Gauge v ->
          emit_json t
            [ "ev", Json.Str "gauge"; "name", Json.Str name; "value", Json.Num v ]
        | Histogram { buckets; sum; observations } ->
          emit_json t
            [
              "ev", Json.Str "histogram";
              "name", Json.Str name;
              "sum", Json.Num sum;
              "observations", Json.Num (float_of_int observations);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (bound, count) ->
                       Json.Obj
                         [
                           ( "le",
                             if Float.is_integer bound || bound = infinity then
                               Json.Str
                                 (if bound = infinity then "inf"
                                  else Printf.sprintf "%.0f" bound)
                             else Json.Str (Printf.sprintf "%g" bound) );
                           "count", Json.Num (float_of_int count);
                         ])
                     buckets) );
            ])
      (metrics t);
    locked t (fun () -> Stdlib.flush oc)
  | Console ppf ->
    let ms = metrics t in
    locked t (fun () ->
        if ms <> [] then begin
          Format.fprintf ppf "[obs] metrics:@.";
          List.iter
            (fun (name, m) ->
              match m with
              | Counter v -> Format.fprintf ppf "[obs]   %-32s %d@." name v
              | Gauge v -> Format.fprintf ppf "[obs]   %-32s %g@." name v
              | Histogram { sum; observations; buckets } ->
                Format.fprintf ppf "[obs]   %-32s n=%d sum=%g %s@." name
                  observations sum
                  (String.concat " "
                     (List.filter_map
                        (fun (bound, count) ->
                          if count = 0 then None
                          else
                            Some
                              (Printf.sprintf "le%s:%d"
                                 (if bound = infinity then "+inf"
                                  else Printf.sprintf "%g" bound)
                                 count))
                        buckets)))
            ms
        end;
        Format.pp_print_flush ppf ())
