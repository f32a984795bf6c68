(* perfbench: closed-loop end-to-end benchmark of the default session.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--mode run|setup] [--trace-out FILE]

   One client evaluates the next op only after the previous op returns;
   every op's value is checked against an OCaml reference (Pb_work).  The
   process prints "READY" the moment its session is set up, so a parent
   process can time set-up from process start; perfbench/run.py does
   that and turns the JSON line this program prints last into the
   benchmark result.

   --mode run       set up, run the determinism guard, measure for S
                    seconds, self-test the checker, print the JSON line
   --mode setup     set up, run the guard, print the JSON line, exit

   With --trace 0 the measured loop goes through Scheme.eval on the
   session and yields the end-to-end metrics, its times scaled to the
   host's reference speed (Pb_calib).  With --trace 1 each op runs
   through Scheme.eval, then twice on a mirror session (a stack Vm
   holding the session's global bindings) where the benchmark calls each
   layer's public function itself, with and without a span around each:
   Sexp.read_all, Expander.expand_program, Compiler.compile_program,
   Optimize.peephole_program, Vm.run_program.  That run yields the
   per-layer metrics. *)

open Pb_work

let now_ns = Pb_trace.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* The par pool: one worker shard, run inline on the calling domain
   (Scheme.par_attach ~domains:false).  Dispatch, Flatvalue, per-chunk
   fiber scheduling and segment traffic are the same as with worker
   domains; the cross-domain hand-off is left out because on a shared
   host it made whole runs two times slower at random.  The shard count
   is fixed, so the pool does the same work on every host. *)
let jobs = 1

let attach_pool s = Scheme.par_attach ~domains:false ~corpus:true ~jobs s

(* A p99 needs at least ten samples beyond it: the measured loop runs
   past its deadline until it has this many ops. *)
let min_ops = 1000

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Host allocation and memory                                          *)
(* ------------------------------------------------------------------ *)

(* Host words allocated so far: minor words plus the words allocated
   straight on the major heap (major minus promoted, since promoted words
   were already counted as minor).  Segment arrays are too big for the
   minor heap, so minor words alone would miss them.  Every session here
   runs on one domain, where this is exact: Gc.minor_words includes the
   minor heap not yet collected, and Gc.counters' major minus promoted is
   exact, although its own minor count (like Gc.quick_stat's) only
   advances at minor collections. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* What one alloc_words call itself allocates, subtracted per bracket. *)
let alloc_cost =
  lazy
    (let a = alloc_words () in
     let b = alloc_words () in
     b -. a)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Checking ops                                                        *)
(* ------------------------------------------------------------------ *)

let check expect = function Rt.Int n -> n = expect | _ -> false

(* One op on a session, its value checked against [expect].  An
   exception counts as a failure, as a wrong value does. *)
let run_op s ~expect src =
  match Scheme.eval s src with v -> check expect v | exception _ -> false

(* ------------------------------------------------------------------ *)
(* Session counters                                                    *)
(* ------------------------------------------------------------------ *)

let stat_fields =
  [| "instrs"; "calls"; "prim-fast"; "prim-deopts"; "captures-oneshot";
     "invokes-oneshot"; "captures-multi"; "invokes-multi"; "unseals";
     "words-copied"; "splits"; "overflows"; "promotions"; "seg-allocs";
     "seg-alloc-words"; "cache-hits"; "par-tasks"; "par-switches" |]

let stat_row st = Array.map (Stats.get st) stat_fields

let field name =
  let rec go i =
    if stat_fields.(i) = name then i else go (i + 1)
  in
  go 0

(* [into] += [after] - [before], field by field. *)
let add_delta into before after =
  Array.iteri (fun i a -> into.(i) <- into.(i) + a - before.(i)) after

let named prefix row =
  Array.to_list
    (Array.mapi (fun i v -> (prefix ^ stat_fields.(i), float_of_int v)) row)

(* The pool's worker counters, summed over shards. *)
let shard_row s =
  let row = Array.make (Array.length stat_fields) 0 in
  Array.iter
    (Option.iter (fun st ->
         Array.iteri (fun i v -> row.(i) <- row.(i) + v) (stat_row st)))
    (Scheme.par_shard_stats s);
  row

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  s : Scheme.t;
  phases : (string * float) list;  (** set-up phase times, ms *)
  warm : (string * float) list;  (** exact counts of the warm-up ops *)
}

(* Fresh session to ready: the prelude image (built once per process,
   which every CLI invocation pays), Scheme.create, the corpus, the
   pool where the workload uses one, the workload's own definitions,
   and a fixed number of warm-up ops. *)
let setup w seed =
  let phases = ref [] in
  let timed name f =
    let t0 = now_ns () in
    let r = f () in
    phases := (name, ms_of_ns (now_ns () - t0)) :: !phases;
    r
  in
  ignore
    (timed "prelude_image.build_ms" (fun () ->
         Prelude_image.get ~scheme_winders:false ~optimize:false ~peephole:true
           ~regalloc:true));
  let s = timed "scheme.create_ms" (fun () -> Scheme.create ()) in
  timed "scheme.load_corpus_ms" (fun () -> Scheme.load_corpus s);
  if w.pool then
    timed "scheme.par_attach_ms" (fun () -> attach_pool s);
  if w.prep <> "" then ignore (Scheme.eval s w.prep);
  let before = stat_row (Scheme.stats s) in
  let a0 = alloc_words () in
  let next = stream ~salt:1 w seed in
  for i = 1 to w.warmup do
    let op = next () in
    if not (run_op s ~expect:op.expect op.src) then
      fail "%s: warm-up op %d failed: %s" w.name i op.src
  done;
  let words = alloc_words () -. a0 in
  let delta = Array.make (Array.length stat_fields) 0 in
  add_delta delta before (stat_row (Scheme.stats s));
  let counts = named "warmup." delta in
  { s; phases = List.rev !phases; warm = ("warmup.alloc_words", words) :: counts }

(* ------------------------------------------------------------------ *)
(* The end-to-end closed loop                                          *)
(* ------------------------------------------------------------------ *)

type loop = {
  n : int;
  failed : int;
  lat_ns : float array;  (** per-op latency at reference speed, sorted *)
  raw_ns : int;  (** summed per-op latency as timed *)
  factors : float array;  (** host speed factor of each block, sorted *)
  words : float;  (** host words allocated inside ops *)
}

(* Ops are timed in blocks of [block]; after each op (outside its time
   and its allocation bracket) the calibration kernel runs once, and a
   block's latencies are divided by the median kernel time of the block
   over Pb_calib.ref_ns.  The median, because a minor collection that
   falls inside the kernel promotes the op's young data and runs up to
   five times longer; such samples are a minority of a block. *)
let block = 32

let closed_loop s next ~seconds =
  let lat = ref (Array.make 4096 0.) in
  let n = ref 0 and failed = ref 0 and words = ref 0. and raw_ns = ref 0 in
  let blk_lat = Array.make block 0 and blk_cal = Array.make block 0 in
  let i = ref 0 and factors = ref [] in
  let flush () =
    if !i > 0 then begin
      let f = Pb_calib.median_ns (Array.sub blk_cal 0 !i) /. Pb_calib.ref_ns in
      factors := f :: !factors;
      for j = 0 to !i - 1 do
        if !n = Array.length !lat then lat := Array.append !lat !lat;
        !lat.(!n) <- float_of_int blk_lat.(j) /. f;
        incr n
      done;
      i := 0
    end
  in
  let cost = Lazy.force alloc_cost in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline || !n + !i < min_ops do
    let op = next () in
    let w0 = alloc_words () in
    let t0 = now_ns () in
    let ok = run_op s ~expect:op.expect op.src in
    let t1 = now_ns () in
    words := !words +. (alloc_words () -. w0 -. cost);
    blk_lat.(!i) <- t1 - t0;
    raw_ns := !raw_ns + (t1 - t0);
    blk_cal.(!i) <- Pb_calib.sample ();
    incr i;
    if not ok then incr failed;
    if !i = block then flush ()
  done;
  flush ();
  let lat_ns = Array.sub !lat 0 !n in
  Array.sort compare lat_ns;
  let factors = Array.of_list !factors in
  Array.sort compare factors;
  { n = !n; failed = !failed; lat_ns; raw_ns = !raw_ns; factors; words = !words }

(* Linear-interpolated quantile of sorted samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let a = sorted.(i) in
    if i + 1 >= n then a else a +. ((x -. float_of_int i) *. (sorted.(i + 1) -. a))

(* Op rates and latencies at the host's reference speed. *)
let end_to_end (lp : loop) =
  let op_s = Array.fold_left ( +. ) 0. lp.lat_ns /. 1e9 in
  [ ("ops_per_s", float_of_int lp.n /. op_s, "1/s");
    ("op_ms_p50", quantile lp.lat_ns 0.5 /. 1e6, "ms");
    ("op_ms_p99", quantile lp.lat_ns 0.99 /. 1e6, "ms");
    ("alloc_words_per_op", per lp.n lp.words, "words");
    ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* ------------------------------------------------------------------ *)
(* The traced pipeline, on a mirror session                            *)
(* ------------------------------------------------------------------ *)

let span_names =
  [| "op"; "sexp.read"; "expander.expand"; "compiler.compile";
     "optimize.peephole"; "vm.run" |]

let sp_op = 0
and sp_read = 1
and sp_expand = 2
and sp_compile = 3
and sp_peephole = 4
and sp_run = 5

(* A stack Vm with the session's config and a copy of every global
   binding of [s]: prelude, corpus, the workload's definitions and, on a
   pooled session, the par primitives, so par dispatch reaches the same
   worker pool and finds task procedures under their names in [s]. *)
let mirror (s : Scheme.t) =
  let vm = Vm.create ~config:Control.default_config () in
  Globals.iter
    (fun name (cell : Rt.global) ->
      if cell.Rt.gdefined then Globals.define (Vm.globals vm) name cell.Rt.gval)
    (Scheme.globals s);
  vm

(* Instructions only the peephole stage emits. *)
let fused = function
  | Rt.Const_push _ | Local_push _ | Free_push _ | Global_push _ | Prim_call _
  | Prim_call1 _ | Prim_call2 _ | Prim_tail_call _ | Local_branch_false _
  | Prim_branch1 _ | Prim_branch2 _ | Prim_call1_op _ | Prim_call2_op _
  | Prim_branch1_op _ | Prim_branch2_op _ | Prim_tail1_op _ | Prim_tail2_op _
  | Return_op _ ->
      true
  | _ -> false

let count_instrs p codes =
  List.fold_left
    (fun acc (c : Rt.code) ->
      Array.fold_left (fun a i -> if p i then a + 1 else a) acc c.Rt.instrs)
    0
    (List.fold_left Bytecode.collect_codes [] codes)

type traced = {
  mutable t_n : int;
  mutable t_failed : int;
  mutable datums : int;
  mutable tops : int;
  mutable emitted : int;
  mutable fused_sites : int;
  mutable ser_ns : int;
  mutable deser_ns : int;
  counts : int array;  (** session counters over traced runs, by field *)
}

let new_traced () =
  { t_n = 0; t_failed = 0; datums = 0; tops = 0; emitted = 0;
    fused_sites = 0; ser_ns = 0; deser_ns = 0;
    counts = Array.make (Array.length stat_fields) 0 }

type spanner = { span : 'a. int -> (unit -> 'a) -> 'a }

(* One op through the layers' public functions, each call wrapped by
   [span]. *)
let pipeline vm { span } src =
  let g = Vm.globals vm in
  let ds = span sp_read (fun () -> Sexp.read_all src) in
  let tops =
    span sp_expand (fun () ->
        Expander.expand_program ~hygiene:vm.Engine.hygiene ~menv:vm.Engine.menv
          ds)
  in
  let codes = span sp_compile (fun () -> Compiler.compile_program g tops) in
  let fused_codes =
    span sp_peephole (fun () -> Optimize.peephole_program ~regalloc:true g codes)
  in
  let v = span sp_run (fun () -> Vm.run_program vm fused_codes) in
  (v, ds, tops, codes, fused_codes)

(* The same pipeline with no spans: whether the op checked, and its
   time in ns. *)
let plain_op vm (op : op) =
  let t0 = now_ns () in
  let ok =
    match pipeline vm { span = (fun _ f -> f ()) } op.src with
    | v, _, _, _, _ -> check op.expect v
    | exception _ -> false
  in
  (ok, now_ns () - t0)

(* One op through the pipeline, each call inside its own span under the
   op's span.  Counting happens after the op's span is closed.  Returns
   the op's value when it checks. *)
let traced_op tr acc vm ~id (op : op) =
  let before = stat_row (Vm.stats vm) in
  let root = Pb_trace.enter tr ~name:sp_op ~parent:(-1) ~op:id in
  let span name f = Pb_trace.span tr ~name ~parent:root ~op:id f in
  let result =
    match pipeline vm { span } op.src with r -> Some r | exception _ -> None
  in
  Pb_trace.leave tr root;
  add_delta acc.counts before (stat_row (Vm.stats vm));
  acc.t_n <- acc.t_n + 1;
  match result with
  | Some (v, ds, tops, codes, fused_codes) when check op.expect v ->
      acc.datums <- acc.datums + List.length ds;
      acc.tops <- acc.tops + List.length tops;
      acc.emitted <- acc.emitted + count_instrs (fun _ -> true) codes;
      acc.fused_sites <- acc.fused_sites + count_instrs fused fused_codes;
      Some v
  | _ ->
      acc.t_failed <- acc.t_failed + 1;
      None

(* The op's argument list and its value through the par wire format. *)
let time_flat acc (op : op) result =
  let args = Values.list_to_value (List.map (fun i -> Rt.Int i) op.args) in
  let t0 = now_ns () in
  let fa = Flatvalue.serialize args in
  let fr = Flatvalue.serialize result in
  let t1 = now_ns () in
  ignore (Flatvalue.deserialize fa);
  ignore (Flatvalue.deserialize fr);
  let t2 = now_ns () in
  acc.ser_ns <- acc.ser_ns + (t1 - t0);
  acc.deser_ns <- acc.deser_ns + (t2 - t1)

(* ------------------------------------------------------------------ *)
(* The determinism guard                                               *)
(* ------------------------------------------------------------------ *)

(* Counts that must repeat exactly for one seed, in every process: the
   warm-up's session counters (and host words, on one domain), and those
   of a fixed block of ops through the traced pipeline on a fresh
   mirror. *)
let guard_ops = 8

let guard w seed (su : setup) =
  let vm = mirror su.s in
  let acc = new_traced () in
  let tr = Pb_trace.create span_names in
  let next = stream ~salt:2 w seed in
  for id = 1 to guard_ops do
    let op = next () in
    if traced_op tr acc vm ~id op = None then
      fail "%s: guard op %d failed: %s" w.name id op.src
  done;
  su.warm
  @ named "guard." acc.counts
  @ [ ("guard.compiler.instrs_emitted", float_of_int acc.emitted);
      ("guard.optimize.fused_sites", float_of_int acc.fused_sites) ]

(* ------------------------------------------------------------------ *)
(* Self-test of the checker                                            *)
(* ------------------------------------------------------------------ *)

(* Fresh ops whose expected value is deliberately off by one: the
   checker must count every one of them as failed. *)
let selftest_ops = 3

let selftest w seed s =
  let next = stream ~salt:3 w seed in
  let caught = ref 0 in
  for _ = 1 to selftest_ops do
    let op = next () in
    if not (run_op s ~expect:(op.expect + 1) op.src) then incr caught
  done;
  !caught = selftest_ops

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-op cost of an attached pool: the same ops on a pooled and a
   pool-less session, alternating which runs first; the median of the
   paired differences, in us. *)
let par_overhead w seed ~pooled ~bare ~seconds =
  let next = stream ~salt:4 w seed in
  let time s (op : op) =
    let t0 = now_ns () in
    if not (run_op s ~expect:op.expect op.src) then
      fail "%s: par overhead op failed: %s" w.name op.src;
    now_ns () - t0
  in
  let diffs = ref [] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while now_ns () < deadline || !i < 8 do
    let op = next () in
    let d =
      if !i land 1 = 0 then
        let p = time pooled op in
        p - time bare op
      else
        let b = time bare op in
        time pooled op - b
    in
    diffs := d :: !diffs;
    incr i
  done;
  let a = Array.of_list (List.map float_of_int !diffs) in
  Array.sort compare a;
  quantile a 0.5 /. 1e3

(* The session of the other kind, warmed up: a pooled session for a
   workload that runs without one, and the reverse.  Returns it with
   its par_attach time when it has a pool. *)
let other_session w seed =
  let alt = Scheme.create () in
  Scheme.load_corpus alt;
  let attach_ms =
    if w.pool then None
    else begin
      let t0 = now_ns () in
      attach_pool alt;
      Some (ms_of_ns (now_ns () - t0))
    end
  in
  if w.prep <> "" then ignore (Scheme.eval alt w.prep);
  let next = stream ~salt:1 w seed in
  for _ = 1 to w.warmup do
    let op = next () in
    ignore (run_op alt ~expect:op.expect op.src)
  done;
  (alt, attach_ms)

(* Each op runs three times: through Scheme.eval on the session, with its
   host allocation and collections bracketed, then through the pipeline
   on the mirror twice, with spans and without, in alternating order.
   The mirror's op rate with spans minus its rate without is the tracing
   overhead. *)
let trace_run w seed (su : setup) ~seconds ~trace_out =
  let s = su.s in
  let vm = mirror s in
  let acc = new_traced () in
  let tr = Pb_trace.create span_names in
  let next = stream w seed in
  let u_n = ref 0 and u_failed = ref 0 in
  let p_n = ref 0 and p_failed = ref 0 and p_ns = ref 0 in
  let plain op =
    let ok, ns = plain_op vm op in
    incr p_n;
    if not ok then incr p_failed;
    p_ns := !p_ns + ns
  in
  let minor = ref 0. and major = ref 0. in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let shards0 = shard_row s in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline do
    let op = next () in
    (* Collections from Gc.quick_stat, words from the exact counters;
       each reading is taken where its own allocation falls outside the
       bracket. *)
    let g0 = Gc.quick_stat () in
    let _, _, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let ok = run_op s ~expect:op.expect op.src in
    let minor1 = Gc.minor_words () in
    let _, _, major1 = Gc.counters () in
    let g1 = Gc.quick_stat () in
    incr u_n;
    if not ok then incr u_failed;
    minor := !minor +. (minor1 -. minor0);
    major := !major +. (major1 -. major0);
    minor_gcs := !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs := !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
    let plain_first = !u_n land 1 = 0 in
    if plain_first then plain op;
    (match traced_op tr acc vm ~id:!u_n op with
    | Some v -> time_flat acc op v
    | None -> ());
    if not plain_first then plain op
  done;
  let shards = Array.make (Array.length stat_fields) 0 in
  add_delta shards shards0 (shard_row s);
  let alt, attach_ms = other_session w seed in
  let pooled, bare = if w.pool then (s, alt) else (alt, s) in
  let overhead_us = par_overhead w seed ~pooled ~bare ~seconds:1.0 in
  Scheme.par_shutdown alt;
  let ctl = Pb_control.measure ~config:Control.default_config ~iters:20000 in
  Option.iter (Pb_trace.write_chrome tr) trace_out;
  let self = Pb_trace.self_ns tr in
  (* Every span lies under an op span, so self times add up to op time. *)
  let op_ns = Array.fold_left ( + ) 0 self in
  let n = acc.t_n and un = !u_n and pn = !p_n in
  let rate ops ns = ratio (float_of_int ops) (float_of_int ns /. 1e9) in
  let us k = per n (float_of_int self.(k)) /. 1e3 in
  let c x = per n (float_of_int x) in
  let cnt f = acc.counts.(field f) in
  let fc f = float_of_int (cnt f) in
  (* All three executions of an op dispatch to the pool. *)
  let shard f = per (un + n + pn) (float_of_int shards.(field f)) in
  let phase k = try List.assoc k su.phases with Not_found -> 0. in
  let metrics =
    [ ("sexp.read_us", us sp_read, "us");
      ("sexp.datums", c acc.datums, "count");
      ("expander.expand_us", us sp_expand, "us");
      ("expander.tops", c acc.tops, "count");
      ("compiler.compile_us", us sp_compile, "us");
      ("compiler.instrs_emitted", c acc.emitted, "count");
      ("optimize.peephole_us", us sp_peephole, "us");
      ("optimize.fused_sites", c acc.fused_sites, "count");
      ("vm.run_us", us sp_run, "us");
      ("vm.instrs", c (cnt "instrs"), "count");
      ("vm.calls", c (cnt "calls"), "count");
      ("vm.instrs_per_us", ratio (fc "instrs") (float_of_int self.(sp_run) /. 1e3), "1/us");
      ("vm.prim_fast_ratio", ratio (fc "prim-fast") (fc "prim-fast" +. fc "prim-deopts"), "ratio");
      ("control.captures_oneshot", c (cnt "captures-oneshot"), "count");
      ("control.invokes_oneshot", c (cnt "invokes-oneshot"), "count");
      ("control.captures_multi", c (cnt "captures-multi"), "count");
      ("control.invokes_multi", c (cnt "invokes-multi"), "count");
      ("control.unseal_ratio", ratio (fc "unseals") (fc "invokes-multi"), "ratio");
      ("control.words_copied", c (cnt "words-copied"), "words");
      ("control.splits", c (cnt "splits"), "count");
      ("control.overflows", c (cnt "overflows"), "count");
      ("control.promotions", c (cnt "promotions"), "count");
      ("control.seg_alloc_words", c (cnt "seg-alloc-words"), "words");
      ("control.cache_hit_ratio", ratio (fc "cache-hits") (fc "cache-hits" +. fc "seg-allocs"), "ratio");
      ("control.capture_oneshot_ns", ctl.capture_oneshot_ns, "ns");
      ("control.reinstate_oneshot_ns", ctl.reinstate_oneshot_ns, "ns");
      ("control.capture_multi_ns", ctl.capture_multi_ns, "ns");
      ("control.reinstate_multi_ns", ctl.reinstate_multi_ns, "ns");
      ("control.alloc_segment_ns", ctl.alloc_segment_ns, "ns");
      ("control.oneshot_pair_words", ctl.oneshot_pair_words, "words");
      ("control.multi_pair_words", ctl.multi_pair_words, "words");
      ("par.tasks", shard "par-tasks", "count");
      ("par.switches", shard "par-switches", "count");
      ("par.shard_instrs", shard "instrs", "count");
      ("par.shard_seg_alloc_words", shard "seg-alloc-words", "words");
      ("par.overhead_us", overhead_us, "us");
      ("flatvalue.serialize_us", c acc.ser_ns /. 1e3, "us");
      ("flatvalue.deserialize_us", c acc.deser_ns /. 1e3, "us");
      ("gc.minor_words", per un !minor, "words");
      ("gc.major_words", per un !major, "words");
      ("gc.minor_collections", per un (float_of_int !minor_gcs), "count");
      ("gc.major_collections", per un (float_of_int !major_gcs), "count");
      ("prelude_image.build_ms", phase "prelude_image.build_ms", "ms");
      ("scheme.create_ms", phase "scheme.create_ms", "ms");
      ("scheme.load_corpus_ms", phase "scheme.load_corpus_ms", "ms");
      ( "scheme.par_attach_ms",
        Option.value attach_ms ~default:(phase "scheme.par_attach_ms"),
        "ms" );
      ("trace.overhead_ops_per_s", rate n op_ns -. rate pn !p_ns, "1/s") ]
  in
  (un + n + pn, !u_failed + acc.t_failed + !p_failed, metrics)

(* ------------------------------------------------------------------ *)
(* Output and modes                                                    *)
(* ------------------------------------------------------------------ *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_str s = Printf.sprintf "%S" s
let json_obj fields = "{" ^ String.concat "," fields ^ "}"
let json_kv k v = json_str k ^ ":" ^ v
let json_nums l = json_obj (List.map (fun (k, v) -> json_kv k (json_num v)) l)

let json_metrics l =
  json_obj
    (List.map
       (fun (k, v, u) ->
         json_kv k
           (json_obj [ json_kv "value" (json_num v); json_kv "unit" (json_str u) ]))
       l)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and mode = ref "run" and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--mode", Arg.Set_string mode, "run|setup");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace output") ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  let su = setup w !seed in
  print_endline "READY";
  flush stdout;
  (* The host's speed right after set-up, to scale the set-up time by. *)
  let setup_factor = Pb_calib.factor () in
  let guard = guard w !seed su in
  let attempted, failed, metrics, host, selftest_ok =
    match !mode with
    | "setup" -> (0, 0, [], [], true)
    | "run" ->
        let attempted, failed, metrics, host =
          if !trace = 0 then
            let lp =
              closed_loop su.s (stream w !seed) ~seconds:!seconds
            in
            ( lp.n, lp.failed, end_to_end lp,
              [ ("raw_ops_per_s", float_of_int lp.n /. (float_of_int lp.raw_ns /. 1e9));
                ("factor_p10", quantile lp.factors 0.1);
                ("factor_p50", quantile lp.factors 0.5);
                ("factor_p90", quantile lp.factors 0.9) ] )
          else
            let attempted, failed, metrics =
              trace_run w !seed su ~seconds:!seconds
                ~trace_out:(if !trace_out = "" then None else Some !trace_out)
            in
            (attempted, failed, metrics, [])
        in
        (attempted, failed, metrics, host, selftest w !seed su.s)
    | m -> fail "unknown mode %S" m
  in
  Scheme.par_shutdown su.s;
  print_endline
    (json_obj
       [ json_kv "workload" (json_str w.name);
         json_kv "params" (json_str w.params);
         json_kv "why" (json_str w.why);
         json_kv "attempted" (string_of_int attempted);
         json_kv "failed" (string_of_int failed);
         json_kv "selftest" (string_of_bool selftest_ok);
         json_kv "jobs" (string_of_int (if w.pool then jobs else 0));
         json_kv "ocaml" (json_str Sys.ocaml_version);
         json_kv "nproc" (string_of_int (Domain.recommended_domain_count ()));
         json_kv "setup" (json_nums su.phases);
         json_kv "setup_factor" (json_num setup_factor);
         json_kv "host_speed" (json_nums host);
         json_kv "guard" (json_nums guard);
         json_kv "metrics" (json_metrics metrics) ])

let () = main ()
