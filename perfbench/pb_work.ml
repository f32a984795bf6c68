(* The four workloads: seeded generators of Scheme source, and the
   references each op's value is checked against.  The references are
   plain OCaml; none of them goes through the interpreter or its
   primitives, so a wrong answer from the runtime cannot agree with its
   own check.

   Each generator works in rounds: a round holds every parameter
   combination of the workload once (or, for [load], a fixed quota of
   definition shapes), shuffled by the seed.  The seed changes the order
   and the constants; the mix of work per round stays fixed, so the
   per-op averages of different seeds measure the same thing. *)

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let rec tak x y z =
  if not (y < x) then z
  else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)

(* (par-reduce + 0 (par-map fib (iota k))): the prelude's iota counts
   from 0 to k-1. *)
let sum_fib k =
  let s = ref 0 in
  for i = 0 to k - 1 do
    s := !s + fib i
  done;
  !s

(* Scheme's [modulo] takes the sign of the divisor. *)
let modulo a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

let clamp lo v hi = if v < lo then lo else if v > hi then hi else v

(* ------------------------------------------------------------------ *)
(* Ops and workloads                                                   *)
(* ------------------------------------------------------------------ *)

type op = {
  src : string;  (** the generated source the session evaluates *)
  expect : int;  (** the reference value *)
  args : int list;  (** the op's parameters, shipped through Flatvalue *)
}

type t = {
  name : string;
  why : string;
  params : string;  (** generator parameters, one line *)
  pool : bool;  (** the session gets a par worker pool *)
  prep : string;  (** evaluated once at set-up, after the corpus *)
  warmup : int;  (** ops run before anything is measured *)
  round : Random.State.t -> op list;  (** one round of ops *)
}

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* oneshot-threads: the Figure 5 thread system under %call/1cc.  Every
   thread adds (fib 12) into one shared sum.  The sum is read only after
   fib returns, with no procedure call (so no preemption point) between
   the read and the set!. *)
let thread_fib = 12

let oneshot_threads =
  {
    name = "oneshot-threads";
    why =
      "Figure-5 threads under %call/1cc: one-shot capture, segment adoption \
       and the segment cache carry the op";
    params =
      Printf.sprintf "threads 4..16 x switch every 2^0..2^6 calls, (fib %d) each"
        thread_fib;
    pool = false;
    prep =
      Printf.sprintf
        "(define (pb-thread-sum nthreads freq)\n\
        \  (let ((sum 0))\n\
        \    (run-threads\n\
        \     (%%repeat nthreads\n\
        \              (lambda ()\n\
        \                (lambda () (let ((v (fib %d))) (set! sum (+ sum v))))))\n\
        \     freq %%call/1cc)\n\
        \    sum))"
        thread_fib;
    warmup = 91;
    round =
      (fun st ->
        let combos =
          List.concat_map
            (fun n -> List.map (fun e -> (n, 1 lsl e)) (range 0 6))
            (range 4 16)
        in
        List.map
          (fun (n, freq) ->
            {
              src = Printf.sprintf "(pb-thread-sum %d %d)" n freq;
              expect = n * fib thread_fib;
              args = [ n; freq ];
            })
          (shuffle st combos));
  }

(* multishot-ctak: ctak under %call/cc; y and z follow x. *)
let ctak_args x = (x, 2 * x / 3, x / 3)

let multishot_ctak =
  {
    name = "multishot-ctak";
    why =
      "ctak under %call/cc: seal, copy-on-invoke with split/unseal and fresh \
       segments, the multi-shot side of the control layer";
    params = "(ctak x 2x/3 x/3), x in 12..15";
    pool = false;
    prep = "(set! ctak-capture %call/cc)";
    warmup = 24;
    round =
      (fun st ->
        List.map
          (fun x ->
            let x, y, z = ctak_args x in
            {
              src = Printf.sprintf "(ctak %d %d %d)" x y z;
              expect = tak x y z;
              args = [ x; y; z ];
            })
          (shuffle st (range 12 15)));
  }

(* load: a fresh program of 40 definitions per op.  Each op holds eight
   definitions of each of five shapes, in a seeded order with seeded
   constants; the names repeat from op to op, so the session's global
   table and macro environment stay bounded. *)
let load_defs = 40

let clamp_macro =
  "(define-syntax pb-clamp\n\
  \  (syntax-rules ()\n\
  \    ((_ lo e hi) (let ((v e)) (cond ((< v lo) lo) ((> v hi) hi) (else v))))))\n"

(* One definition of shape [shape] named pb<i>, and its value at [n]. *)
let gen_def st shape i n =
  let c lo hi = lo + Random.State.int st (hi - lo + 1) in
  match shape with
  | 0 ->
      let c1 = c 1 50 and c2 = c 2 9 and c3 = c 1 200 and c4 = c 100 900 in
      ( Printf.sprintf
          "(define (pb%d n)\n\
          \  (let* ((a (+ n %d)) (b (* a %d)) (c (- b %d)))\n\
          \    (pb-clamp 0 c %d)))\n"
          i c1 c2 c3 c4,
        clamp 0 (((n + c1) * c2) - c3) c4 )
  | 1 ->
      let c1 = c 0 20 and c2 = c 2 9 and c3 = c 1 99 in
      ( Printf.sprintf
          "(define (pb%d n)\n\
          \  (cond ((< n %d) (* n %d))\n\
          \        ((= n %d) %d)\n\
          \        (else (- n %d))))\n"
          i c1 c2 c1 c3 c1,
        if n < c1 then n * c2 else if n = c1 then c3 else n - c1 )
  | 2 ->
      let c1 = c 1 99 and c2 = c 1 99 and c3 = c 1 99 in
      ( Printf.sprintf
          "(define (pb%d n)\n\
          \  (case (modulo n 4)\n\
          \    ((0) %d)\n\
          \    ((1 2) (+ n %d))\n\
          \    (else (* 2 %d))))\n"
          i c1 c2 c3,
        match modulo n 4 with 0 -> c1 | 1 | 2 -> n + c2 | _ -> 2 * c3 )
  | 3 ->
      let c1 = c 0 99 and c2 = c 1 6 in
      ( Printf.sprintf
          "(define (pb%d n)\n\
          \  (let loop ((i 0) (acc %d))\n\
          \    (if (= i %d) acc (loop (+ i 1) (+ acc n)))))\n"
          i c1 c2,
        c1 + (c2 * n) )
  | _ ->
      let c1 = c 1 9 and c2 = c 0 50 and c3 = c 1 100 in
      ( Printf.sprintf
          "(define (pb%d n)\n\
          \  (let ((x (* n %d)))\n\
          \    (pb-clamp %d x (+ %d %d))))\n"
          i c1 c2 c2 c3,
        clamp c2 (n * c1) (c2 + c3) )

let load_op st =
  let shapes = shuffle st (List.init load_defs (fun i -> i mod 5)) in
  let args = List.init load_defs (fun _ -> Random.State.int st 21) in
  let b = Buffer.create 4096 in
  Buffer.add_string b clamp_macro;
  let expect = ref 0 in
  List.iteri
    (fun i (shape, n) ->
      let text, v = gen_def st shape i n in
      Buffer.add_string b text;
      expect := !expect + v)
    (List.combine shapes args);
  Buffer.add_string b "(+";
  List.iteri (fun i n -> Buffer.add_string b (Printf.sprintf " (pb%d %d)" i n)) args;
  Buffer.add_string b ")\n";
  { src = Buffer.contents b; expect = !expect; args }

let load =
  {
    name = "load";
    why =
      "a fresh 40-definition program per op: reader, expander, compiler and \
       peephole do the work, the runtime almost none";
    params =
      Printf.sprintf
        "%d definitions per op (8 each of let*+macro, cond, case, named let, \
         let+macro), args 0..20, one syntax-rules macro"
        load_defs;
    pool = false;
    prep = "";
    warmup = 150;
    round = (fun st -> [ load_op st ]);
  }

(* par-map: fib over (iota k) dispatched to the worker pool. *)
let par_map =
  {
    name = "par-map";
    why =
      "par-map/par-reduce over a worker pool: par dispatch, Flatvalue and \
       per-chunk fiber scheduling, the only workload that touches them";
    params = "(par-reduce + 0 (par-map fib (iota k))), k in 8..16, chunk 2";
    pool = true;
    prep = "";
    warmup = 90;
    round =
      (fun st ->
        List.map
          (fun k ->
            {
              src = Printf.sprintf "(par-reduce + 0 (par-map fib (iota %d)))" k;
              expect = sum_fib k;
              args = List.init k Fun.id;
            })
          (shuffle st (range 8 16)));
  }

let all = [ oneshot_threads; multishot_ctak; load; par_map ]
let find name = List.find_opt (fun w -> w.name = name) all

(* An endless op stream: rounds drawn one after another from the seed.
   [salt] separates independent streams of the same seed. *)
let stream ?(salt = 0) w seed =
  let st = Random.State.make [| seed; Hashtbl.hash w.name; salt |] in
  let pending = ref [] in
  fun () ->
    (match !pending with [] -> pending := w.round st | _ -> ());
    match !pending with
    | op :: rest ->
        pending := rest;
        op
    | [] -> assert false
