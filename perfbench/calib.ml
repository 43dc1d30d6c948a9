(* Host-speed calibration.

   On a shared host the same op's wall time drifts by a quarter or more
   over a few seconds as neighbouring tenants come and go, and a run's
   median follows the host's load more than the program. Memory-heavy code
   suffers most: a 64 KiB integer loop drifts by under a tenth while the
   ops drift by a quarter.

   So the harness times this fixed kernel between consecutive ops and scales
   each op by [nominal_s] over the kernel times measured just before and
   just after it: an op reads as it would on a host where the kernel takes
   [nominal_s]. The kernel strides pseudo-randomly over 4 MiB, more than a
   core's L2, so it takes the cache and memory path the program's heap
   traffic takes. It allocates nothing, so it never runs GC work on the
   program's behalf.

   An op leaves more or less of the buffer in cache, and a pass over a
   partly evicted buffer is slower: timed straight after the op, the kernel
   would read an op that shrinks its working set as a slower host. So each
   sample makes one untimed pass first, then times a second pass over the
   same addresses. [after_work] measures what is left of the dependence. *)

(* Outside the OCaml heap, so the GC neither scans it nor paces itself by
   it. Filled at start-up, every page of it stays resident for the whole
   run: [resident_mb] is what it adds to the process's RSS, which the
   harness takes off [peak_rss_mb]. *)
let buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19) in
  Bigarray.Array1.fill b 0;
  b

let resident_mb = float_of_int (Bigarray.Array1.size_in_bytes buf) /. 1048576.

let iterations = 300_000

let kernel () =
  let mask = Bigarray.Array1.dim buf - 1 in
  let x = ref 12345 in
  for _ = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lsr 4) land mask in
    Bigarray.Array1.unsafe_set buf i (Bigarray.Array1.unsafe_get buf i + !x)
  done

(* Wall seconds of one timed kernel pass, after the untimed one. *)
let sample () =
  kernel ();
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

(* A fixed reference that only sets the scale of the figures. On the 2 GHz
   Xeon vCPUs this benchmark was written on, the kernel's median over a run
   ranged from 1.2 to 2.8 ms as the host's load changed. *)
let nominal_s = 2.5e-3

(* The scale for work done between two kernel samples. *)
let factor ~before ~after = nominal_s /. ((before +. after) /. 2.)

(* The samples taken straight after each of three kinds of work, taken in
   turn 40 times: nothing (the smallest working set an op can have), a
   burst of short-lived OCaml allocation (what every op does), and a write
   sweep over 64 MiB, far more than any op touches. *)
let after_work () =
  let sweep = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 23) in
  let works =
    [
      "idle", ignore;
      ( "alloc",
        fun () ->
          let l = ref [] in
          for i = 1 to 1_000_000 do
            l := (i, i) :: (if i land 1023 = 0 then [] else !l)
          done;
          ignore (Sys.opaque_identity !l) );
      "sweep", fun () -> Bigarray.Array1.fill sweep 1;
    ]
  in
  let times = List.map (fun _ -> ref []) works in
  for _ = 1 to 40 do
    List.iter2
      (fun (_, work) ts ->
        work ();
        ts := sample () :: !ts)
      works times
  done;
  List.map2 (fun (name, _) ts -> name, !ts) works times
