type kind =
  | Deadline
  | States
  | Pairs
  | Interrupt
  | Memory

let kind_to_string = function
  | Deadline -> "deadline"
  | States -> "states"
  | Pairs -> "pairs"
  | Interrupt -> "interrupt"
  | Memory -> "memory"

let kind_of_string = function
  | "deadline" -> Some Deadline
  | "states" -> Some States
  | "pairs" -> Some Pairs
  | "interrupt" -> Some Interrupt
  | "memory" -> Some Memory
  | _ -> None

exception Exhausted of kind

type t = {
  seconds : float option;
  mutable stop_at : float option;  (* absolute, on the Obs.now clock *)
  cancel : (unit -> bool) option;
  memory_limit_mb : int option;
}

let from_now = Option.map (fun s -> Obs.now () +. s)

let create ?deadline ?(armed = true) ?cancel ?memory_limit_mb () =
  {
    seconds = deadline;
    stop_at = (if armed then from_now deadline else None);
    cancel;
    memory_limit_mb;
  }

let seconds t = t.seconds
let arm t seconds = t.stop_at <- from_now seconds

let left t =
  Option.map (fun limit -> Float.max 0. (limit -. Obs.now ())) t.stop_at

(* A clock read is a syscall, so a loop polls every 256 ticks, and also
   at ticks 1, 2, 4, ..., 128. *)
let poll_due n = n > 0 && (n land 255 = 0 || n land (n - 1) = 0)

(* [Gc.quick_stat] reads counters without walking the heap, so the
   watermark costs about as much as the clock read. *)
let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.)

let poll t =
  (match t.cancel with
   | Some cancelled when cancelled () -> raise (Exhausted Interrupt)
   | _ -> ());
  (match t.memory_limit_mb with
   | Some mb when heap_mb () > float_of_int mb -> raise (Exhausted Memory)
   | _ -> ());
  match t.stop_at with
  | Some limit when Obs.now () > limit -> raise (Exhausted Deadline)
  | _ -> ()
