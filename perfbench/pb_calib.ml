(* Host-speed calibration.

   On a shared host the machine itself changes speed under the
   benchmark: the same ops run up to two times slower for tens of
   seconds at a time, in process CPU time as much as in wall clock (the
   neighbours share caches and cores; steal time stays under 1%).  A
   run of a few tens of seconds cannot average that out.

   So the benchmark runs a fixed kernel of plain OCaml between its ops,
   code that no change to the repository can touch, and times it.  The
   kernel's time against [ref_ns] is the host's speed at that moment,
   and op times are divided by it: they read as on the host running at
   its reference speed.  A change to the interpreter moves op times and
   not the kernel, so it shows in full.

   The kernel mixes what the interpreter does most: small allocations
   that die young (a balanced map, a hash table of strings, a sorted
   list) and calls (fib).  It keeps no data between calls. *)

module M = Map.Make (Int)

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let kernel () =
  let m = ref M.empty in
  for i = 1 to 600 do
    m := M.add (i * 7919 land 1023) i !m
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 200 do
    Hashtbl.replace h (string_of_int (i * 31)) [ i; i + 1 ]
  done;
  let l = List.sort compare (List.init 200 (fun i -> i * 17 mod 101)) in
  M.cardinal !m + Hashtbl.length h + List.length l + fib 12

(* The kernel's median time on the host the benchmark was tuned on
   (2 vCPUs of a shared x86_64 server, OCaml 5.1.1), in ns. *)
let ref_ns = 150_000.

(* One timed run of the kernel, in ns. *)
let sample () =
  let t0 = Pb_trace.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Pb_trace.now_ns () - t0

let median_ns a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then float_of_int a.(n / 2)
  else float_of_int (a.((n / 2) - 1) + a.(n / 2)) /. 2.

(* How slow the host runs now against its reference speed: the median
   of [k] kernel runs over [ref_ns]. *)
let factor ?(k = 31) () = median_ns (Array.init k (fun _ -> sample ())) /. ref_ns
