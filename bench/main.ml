(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4 and the Section 5 comparison), plus ablations of
   the design choices called out in DESIGN.md.

     e1    ctak with call/cc vs call/1cc          (Section 4, first result)
     e2    thread systems, Figure 5               (CPS / call/cc / call/1cc)
     e3    deep recursion under overflow policies (Section 4, third result)
     e4    per-frame overhead, stack vs heap      (Section 5, Appel-Shao)
     e5    dynamic-wind: deep wind/unwind with escaping one-shot conts
     e9    data-parallel par-map/par-reduce: chunked tasks over --jobs
           worker shards, one-shot-continuation fiber scheduling with
           work stealing (not in [all]; CI compares --no-steal domains
           vs --sequential at 0%)
     a1    segment cache on/off
     a2    overflow hysteresis on/off
     a3    copy bound sweep (splitting)
     a4    one-shot fragmentation: whole-segment vs seal-displacement
     a5    promotion: eager walk vs shared flag
     a6    capture strategy: zero-copy sealing vs eager copy-on-capture

   Every experiment is one entry of [specs] below.  Most are tables: a
   list of variants (a backend and control configuration, untimed set-up
   programs, timed programs and the counters to record), each measured by
   [measure_variant].  Adding an experiment means adding one spec.

   Quick mode (default) runs scaled-down parameters; [--full] uses the
   paper's exact workloads (fib 20, 1000 threads, 10^6-call recursions). *)

let fuel = max_int
let full_mode = ref false
let iters = ref 1
let json_path = ref ""
let jobs = ref 4
let chunk = ref 2
let sequential = ref false
let no_steal = ref false

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* The one timing loop.  [reset] runs before every run; one untimed
   warm-up run precedes the [--iters] timed ones, so the deterministic
   counters describe a warm run whatever [--iters] is.  Returns the
   minimum (the headline number: least interference) and the median
   (robustness check) in ms, the OCaml minor words of the last timed run
   and its result. *)
let time ~reset f =
  reset ();
  ignore (f ());
  let minor = ref 0 and result = ref None in
  let samples =
    Array.init !iters (fun _ ->
        reset ();
        let t0 = Unix.gettimeofday () in
        let w0 = Gc.minor_words () in
        result := Some (f ());
        minor := int_of_float (Gc.minor_words () -. w0);
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Array.sort compare samples;
  (samples.(0), samples.(!iters / 2), !minor, Option.get !result)

let session ?(backend = Scheme.Stack Control.default_config)
    ?(scheme_winders = false) () =
  let stats = Stats.create () in
  let s = Scheme.create ~backend ~stats ~scheme_winders () in
  Scheme.load_corpus s;
  (s, stats)

let run s src = ignore (Scheme.eval ~fuel s src)

type variant = {
  key : string;  (** JSON record name *)
  label : string;  (** table label *)
  backend : Scheme.backend;
  scheme_winders : bool;
  setup : string list;  (** untimed, once per session *)
  timed : string list;
      (** one timed program per table row, each in a fresh session; a
          single program when the table has a row per variant *)
  extra : (string * (m -> int)) list;  (** counters recorded besides [base] *)
}

and m = {
  v : variant;
  ms : float;
  med : float;
  minor : int;  (** OCaml minor words of the last timed run *)
  st : Stats.t;  (** counters of the last timed run *)
}

let variant ?(backend = Scheme.Stack Control.default_config)
    ?(scheme_winders = false) ?(setup = []) ?(extra = []) key label timed =
  { key; label; backend; scheme_winders; setup; timed; extra }

let stack f = Scheme.Stack (f Control.default_config)

let measure_variant v =
  List.map
    (fun src ->
      let s, st =
        session ~backend:v.backend ~scheme_winders:v.scheme_winders ()
      in
      List.iter (run s) v.setup;
      let ms, med, minor, () =
        time ~reset:(fun () -> Stats.reset st) (fun () -> run s src)
      in
      { v; ms; med; minor; st })
    v.timed

(* Counters, keyed by their JSON name ([Stats] names use dashes). *)
let get st key = Stats.get st (String.map (function '_' -> '-' | c -> c) key)
let stat key = (key, fun m -> get m.st key)

let captures =
  ("captures", fun m -> m.st.Stats.captures_multi + m.st.Stats.captures_oneshot)

(* The run's host memory: its OCaml minor-heap words (heap objects and the
   compile of its text) plus its stack segments, which go straight to the
   major heap and are counted by [seg_alloc_words] instead. *)
let host_words = ("host_words", fun m -> m.minor + m.st.Stats.seg_alloc_words)

let base = function
  | Scheme.Heap -> List.map stat [ "instrs"; "heap_frame_words"; "cow_copies" ]
  | _ ->
      List.map stat
        [ "instrs"; "words_copied"; "seg_alloc_words"; "cache_hits" ]

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable metrics (BENCH_*.json)                *)
(* ------------------------------------------------------------------ *)

(* Every experiment records its headline measurements here; [--json FILE]
   dumps them so each PR can commit a perf baseline and later PRs can
   diff against it.  Counter semantics are those of [Stats]. *)

type jval = J_int of int | J_float of float

let json_records : (string * (string * jval) list) list ref = ref []

let record ?timing name metrics =
  let timing =
    match timing with
    | None -> []
    | Some (ms, _) when !iters = 1 -> [ ("ms", J_float ms) ]
    | Some (ms, med) -> [ ("ms", J_float ms); ("ms_median", J_float med) ]
  in
  json_records := (name, timing @ metrics) :: !json_records

(* A variant over several rows records the sums of its rows. *)
let record_variant v ms =
  let sum f = List.fold_left (fun acc m -> acc +. f m) 0. ms in
  record
    ~timing:(sum (fun m -> m.ms), sum (fun m -> m.med))
    v.key
    (List.map
       (fun (k, f) -> (k, J_int (List.fold_left (fun acc m -> acc + f m) 0 ms)))
       (base v.backend @ v.extra))

let write_json path =
  let value = function
    | J_int x -> string_of_int x
    | J_float x -> Printf.sprintf "%.3f" x
  in
  let entry (name, metrics) =
    Printf.sprintf "    %S: {%s}" name
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) metrics))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"oneshot-bench/v1\",\n\
    \  \"mode\": %S,\n\
    \  \"iters\": %d,\n\
    \  \"experiments\": {\n\
     %s\n\
    \  }\n\
     }\n"
    (if !full_mode then "full" else "quick")
    !iters
    (String.concat ",\n" (List.rev_map entry !json_records));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* Rows of cells, the first row the header; the first column is
   left-aligned, the rest right-aligned, each as wide as its widest cell. *)
let print_table rows =
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) (List.hd rows))
      rows
  in
  List.iter
    (fun row ->
      List.iteri
        (fun j (w, c) ->
          if j = 0 then Printf.printf "  %-*s" w c
          else Printf.printf "  %*s" w c)
        (List.combine widths row);
      print_newline ())
    rows

type table = {
  intro : string;  (** workload description, printed before the table *)
  head : string;  (** header of the label column *)
  rows : string list;
      (** row labels when every variant times one program per row; [[]]
          gives one row per variant instead *)
  variants : variant list;
  cols : (string * (m -> string)) list;  (** column header and cell *)
  footer : m list list -> unit;
      (** the paper comparison, from each variant's measurements *)
}

let table t =
  print_string t.intro;
  let results = List.map (fun v -> (v, measure_variant v)) t.variants in
  List.iter (fun (v, ms) -> record_variant v ms) results;
  let cells m = List.map (fun (_, cell) -> cell m) t.cols in
  print_table
    (match t.rows with
    | [] ->
        (t.head :: List.map fst t.cols)
        :: List.map (fun (v, ms) -> v.label :: List.concat_map cells ms) results
    | rows ->
        (t.head
        :: List.concat_map
             (fun v -> List.map (fun (h, _) -> v.label ^ " " ^ h) t.cols)
             t.variants)
        :: List.mapi
             (fun i r ->
               let at (_, ms) = cells (List.nth ms i) in
               r :: List.concat_map at results)
             rows);
  t.footer (List.map snd results)

let count header (_, f) = (header, fun m -> string_of_int (f m))
let time_ms = ("time(ms)", fun m -> Printf.sprintf "%.1f" m.ms)
let pct a b = (a -. b) /. a *. 100.

(* ------------------------------------------------------------------ *)
(* Experiments that are not tables of timed variants                   *)
(* ------------------------------------------------------------------ *)

let a3 depth =
  Printf.printf
    "  workload: capture at depth %d, then one invocation of the \
     continuation\n"
    depth;
  let row bound =
    let s, stats =
      session ~backend:(stack (fun c -> { c with Control.copy_bound = bound }))
        ()
    in
    (* Capture at depth, then escape without unwinding so the saved
       segment is still one unsplit block when we invoke it. *)
    run s
      (Printf.sprintf
         {|(define kk #f)
           (define (probe n)
             (if (= n 0)
                 (%%call/cc (lambda (c) (set! kk c) (%%escape 'captured)))
                 (+ 1 (probe (- n 1)))))
           (define %%escape #f)
           (%%call/cc (lambda (out) (set! %%escape out) (probe %d)))|}
         depth);
    Stats.reset stats;
    run s "(let ((k2 kk)) (set! kk #f) (if k2 (k2 0) 'done))";
    let invokes = max 1 stats.Stats.invokes_multi in
    record
      (Printf.sprintf "a3.bound-%d" bound)
      [
        ("splits", J_int stats.Stats.splits);
        ("words_copied", J_int stats.Stats.words_copied);
      ];
    [
      string_of_int bound;
      string_of_int stats.Stats.splits;
      string_of_int stats.Stats.invokes_multi;
      Printf.sprintf "%.1f"
        (float_of_int stats.Stats.words_copied /. float_of_int invokes);
    ]
  in
  print_table
    ([ "copy-bound(w)"; "splits"; "invokes"; "copied/invoke(w)" ]
    :: List.map row [ 32; 128; 512; 4096 ])

let a4 held =
  Printf.printf
    "  workload: %d nested live one-shot captures (idle threads); resident \
     stack words\n"
    held;
  let row (name, key, seal) =
    let s, _ =
      session ~backend:(stack (fun c -> { c with Control.oneshot_seal = seal }))
        ()
    in
    (* Hold [held] live one-shot captures (parked threads), escaping
       from the bottom so none of them is consumed. *)
    run s
      (Printf.sprintf
         {|(define ks '())
           (define %%out #f)
           (define (hold n)
             (if (= n 0)
                 (%%out 'parked)
                 ;; non-tail: each capture encapsulates a live segment
                 (+ 1 (%%call/1cc (lambda (k)
                   (set! ks (cons k ks))
                   (hold (- n 1)))))))
           (%%call/cc (lambda (o) (set! %%out o) (hold %d)))|}
         held);
    let live =
      match Globals.lookup_opt (Scheme.globals s) "ks" with
      | Some v ->
          List.fold_left
            (fun acc k ->
              match k with
              | Rt.Cont c -> acc + max c.Rt.sr.Rt.size 0
              | _ -> acc)
            0 (Values.list_of_value v)
      | None -> 0
    in
    record key [ ("live_words", J_int live) ];
    [
      name;
      string_of_int live;
      Printf.sprintf "%.1f" (float_of_int live /. float_of_int held);
    ]
  in
  print_table
    ([ "seal policy"; "live words"; "per capture" ]
    :: List.map row
         [
           ("whole segment", "a4.whole-segment", Control.Whole_segment);
           ( "seal displacement 256",
             "a4.seal-displacement",
             Control.Seal_displacement 256 );
         ]);
  print_string
    "  (paper: 100 threads on 16KB default segments occupy 1.6MB unless the\n\
    \   segment is sealed at a fixed displacement above the occupied part)\n"

(* Not part of [all]: the shard-record keys depend on --jobs,
   and [all --json] must keep producing exactly the committed baseline's
   experiment set.  CI runs e9 as its own step twice -- once with worker
   domains, once --sequential (inline shards) -- and compares the two
   JSONs at zero tolerance: with --no-steal the chunk distribution is
   pinned (task i on shard i mod jobs), so every deterministic counter
   must be bit-identical across the two modes.  The speedup legs always
   run at 1/2/4 shards so their keys are stable regardless of --jobs. *)
let e9 workloads =
  let jobs = !jobs and chunk = !chunk in
  let steal = not !no_steal and domains = not !sequential in
  Printf.printf "  chunk %d, %s%s\n" chunk
    (if domains then "worker domains" else "inline shards")
    (if steal then ", work stealing" else ", no-steal round-robin");
  let eval_all s =
    List.map (fun (_, src) -> Scheme.eval_string ~fuel s src) workloads
  in
  List.iter (fun (name, src) -> Printf.printf "  %-8s %s\n" name src) workloads;
  (* Serial reference: the same expressions on a plain corpus session --
     without a pool, par-map/par-reduce ARE the serial library. *)
  let s0, st0 = session () in
  let ms_seq, med_seq, minor, serial =
    time ~reset:(fun () -> Stats.reset st0) (fun () -> eval_all s0)
  in
  let v = variant "e9.sequential" "serial" [] in
  record_variant v [ { v; ms = ms_seq; med = med_seq; minor; st = st0 } ];
  Printf.printf "  serial reference: %.1f ms\n" ms_seq;
  let shard_sum shards key =
    Array.fold_left
      (fun acc st -> match st with Some st -> acc + get st key | None -> acc)
      0 shards
  in
  (* One pool run: attach, evaluate the workloads, detach.  The reset
     hook zeroes master and shard counters so each run contributes
     exactly one run's worth. *)
  let leg ~jobs ~steal ~domains =
    let s, stats = session () in
    Scheme.par_attach ~chunk ~steal ~domains ~fuel ~corpus:true ~jobs s;
    let reset () =
      Stats.reset stats;
      Array.iter
        (function Some st -> Stats.reset st | None -> ())
        (Scheme.par_shard_stats s)
    in
    let ms, med, _, vals = time ~reset (fun () -> eval_all s) in
    let shards =
      Array.map
        (function Some st -> Some (Stats.copy st) | None -> None)
        (Scheme.par_shard_stats s)
    in
    Scheme.par_shutdown s;
    (vals, ms, med, stats, shards)
  in
  let speedup n =
    let vals, ms, med, master, shards = leg ~jobs:n ~steal ~domains in
    if vals <> serial then (
      Printf.eprintf "e9: %d-shard values diverged from the serial run\n" n;
      exit 1);
    let sum = shard_sum shards in
    let speedup = ms_seq /. Float.max 1e-9 ms in
    (* master + shard-summed deterministic counters: invariant across
       chunk distributions by the per-chunk discipline (chunk size never
       depends on jobs; segment cache reset to a canonical warm state per
       chunk) *)
    record ~timing:(ms, med)
      (Printf.sprintf "e9.jobs%d" n)
      [
        ("instrs", J_int (master.Stats.instrs + sum "instrs"));
        ( "words_copied",
          J_int (master.Stats.words_copied + sum "words_copied") );
        ( "seg_alloc_words",
          J_int (master.Stats.seg_alloc_words + sum "seg_alloc_words") );
        ("jobs", J_int n);
        ("speedup", J_float speedup);
        ("par_tasks", J_int (sum "par_tasks"));
        ("par_steals", J_int (sum "par_steals"));
        ("par_switches", J_int (sum "par_switches"));
      ];
    string_of_int n
    :: Printf.sprintf "%.1f" ms
    :: Printf.sprintf "%.2fx" speedup
    :: List.map
        (fun c -> string_of_int (sum c))
        [ "instrs"; "par_tasks"; "par_steals"; "par_switches" ]
  in
  print_table
    (("shards" :: "time(ms)" :: "speedup" :: "instrs(sum)" :: "tasks"
     :: [ "steals"; "switches" ])
    :: List.map speedup [ 1; 2; 4 ]);
  (* No-steal identity pin: the pinned round-robin distribution run with
     worker domains, the same shards inline, and everything on one
     shard.  Per-shard deterministic counters must match domains-vs-
     inline exactly, and the shard sums must equal the 1-shard run's. *)
  let shards ~jobs ~domains =
    let _, _, _, _, shards = leg ~jobs ~steal:false ~domains in
    shards
  in
  let prim = shards ~jobs ~domains in
  let inline = shards ~jobs ~domains:false in
  let one = shards ~jobs:1 ~domains:false in
  let det = [ "instrs"; "words_copied"; "seg_alloc_words"; "par_tasks" ] in
  let at shards i key =
    match shards.(i) with Some st -> get st key | None -> 0
  in
  let identical =
    List.for_all
      (fun c ->
        shard_sum prim c = shard_sum one c
        && List.for_all
             (fun i -> at prim i c = at inline i c)
             (List.init jobs Fun.id))
      det
  in
  Printf.printf "  no-steal shards (%d):\n" jobs;
  print_table
    ([ "shard"; "instrs"; "copied(w)"; "alloc(w)"; "tasks" ]
    :: List.init jobs (fun i ->
           record
             (Printf.sprintf "e9.shard%d" i)
             (List.map (fun c -> (c, J_int (at prim i c))) det);
           string_of_int i
           :: List.map (fun c -> string_of_int (at prim i c)) det));
  Printf.printf
    "  no-steal identity (domains vs inline; %d-shard sums vs 1 shard): %s\n"
    jobs
    (if identical then "identical" else "MISMATCH");
  if not identical then (
    Printf.eprintf "e9: no-steal counters diverged across distributions\n";
    exit 1)

(* ------------------------------------------------------------------ *)
(* The experiments                                                     *)
(* ------------------------------------------------------------------ *)

type spec = { id : string; title : string; in_all : bool; run : unit -> unit }

let spec ?(in_all = true) id title ~quick ~full f =
  let run () = f (if !full_mode then full else quick) in
  { id; title; in_all; run }

let wind_defs =
  {scheme|
(define (wind-escape depth)
  (call/1cc
   (lambda (k)
     (let loop ((d depth))
       (if (= d 0)
           (k 'out)
           (dynamic-wind
            (lambda () #t)
            (lambda () (loop (- d 1)))
            (lambda () #t)))))))

(define (wind-escape-loop times depth)
  (if (= times 0)
      'done
      (begin (wind-escape depth) (wind-escape-loop (- times 1) depth))))
|scheme}

let specs =
  [
    spec "e1"
      "E1 (Section 4): ctak -- capture+invoke a continuation at every call"
      ~quick:(18, 12, 6) ~full:(20, 14, 7) (fun (x, y, z) ->
        let op key label op =
          variant key label
            ~setup:[ Printf.sprintf "(set! ctak-capture %s)" op ]
            [ Printf.sprintf "(ctak %d %d %d)" x y z ]
            ~extra:[ captures; host_words ]
        in
        table
          {
            intro = Printf.sprintf "  workload: (ctak %d %d %d)\n" x y z;
            head = "operator";
            rows = [];
            variants =
              [
                op "e1.callcc" "call/cc" "%call/cc";
                op "e1.call1cc" "call/1cc" "%call/1cc";
              ];
            cols =
              [
                time_ms;
                count "captures" captures;
                count "copied(w)" (stat "words_copied");
                count "alloc(w)" (stat "seg_alloc_words");
                count "host(w)" host_words;
              ];
            footer =
              (function
              | [ [ cc ]; [ c1 ] ] ->
                  let less (_, f) =
                    float (f cc - f c1) /. float (max 1 (f cc)) *. 100.
                  in
                  Printf.printf
                    "  call/1cc: %.0f%% faster, %.0f%% less stack allocation, \
                     %.0f%% less host memory (paper: 13%% faster, 23%% less \
                     memory)\n"
                    (pct cc.ms c1.ms)
                    (less (stat "seg_alloc_words"))
                    (less host_words)
              | _ -> assert false);
          });
    spec "e2" "E2 (Figure 5): thread systems, context-switch frequency sweep"
      ~quick:(15, [ 10; 100 ]) ~full:(20, [ 10; 100; 1000 ])
      (fun (fib_n, thread_counts) ->
        let freqs = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ] in
        let cells =
          List.concat_map
            (fun n -> List.map (fun f -> (n, f)) freqs)
            thread_counts
        in
        let system key label prog =
          variant key label ~extra:[ captures ]
            (List.map (fun (n, freq) -> prog n freq) cells)
        in
        table
          {
            intro =
              Printf.sprintf
                "  each thread computes (fib %d); times in ms (paper: DEC \
                 Alpha ms)\n"
                fib_n;
            head = "threads  freq";
            rows = List.map (fun (n, f) -> Printf.sprintf "%7d %5d" n f) cells;
            variants =
              [
                system "e2.cps" "cps" (fun n f ->
                    Printf.sprintf "(run-cps-fib-threads %d %d %d)" n fib_n f);
                system "e2.callcc" "call/cc" (fun n f ->
                    Printf.sprintf "(run-fib-threads %d %d %d %%call/cc)" n
                      fib_n f);
                system "e2.call1cc" "call/1cc" (fun n f ->
                    Printf.sprintf "(run-fib-threads %d %d %d %%call/1cc)" n
                      fib_n f);
              ];
            cols = [ ("ms", fun m -> Printf.sprintf "%.1f" m.ms) ];
            footer =
              (fun _ ->
                print_string
                  "  expected shape: CPS wins only for switches more frequent \
                   than about\n\
                  \  once every 4-8 calls; call/1cc <= call/cc everywhere; the \
                   advantage\n\
                  \  shrinks as switches become rare (paper: 'only a few \
                   percent' beyond\n\
                  \  one switch per 128 calls).\n");
          });
    spec "e3"
      "E3 (Section 4): repeated deep recursion; stack overflow as implicit \
       call/1cc vs call/cc"
      ~quick:(20, 10_000) ~full:(100, 10_000) (fun (n, depth) ->
        let policy key label p =
          variant key label
            ~backend:(stack (fun c -> { c with Control.overflow_policy = p }))
            [ Printf.sprintf "(deep-loop %d %d)" n depth ]
            ~extra:[ stat "overflows" ]
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: %d iterations of %d-deep non-tail recursion (%d \
                 calls total), 16K-word segments\n"
                n depth (n * depth);
            head = "overflow policy";
            rows = [];
            variants =
              [
                policy "e3.overflow-call1cc" "implicit call/1cc"
                  Control.As_call1cc;
                policy "e3.overflow-callcc" "implicit call/cc"
                  Control.As_callcc;
              ];
            cols =
              [
                time_ms;
                count "overflows" (stat "overflows");
                count "copied(w)" (stat "words_copied");
                count "alloc(w)" (stat "seg_alloc_words");
                count "cache-hit" (stat "cache_hits");
              ];
            footer =
              (function
              | [ [ c1 ]; [ cc ] ] ->
                  let ratio (_, f) = float (f cc) /. float (max 1 (f c1)) in
                  Printf.printf
                    "  one-shot overflow: %.0fx less copying, %.0fx less \
                     allocation, %.0f%% faster wall clock\n"
                    (ratio (stat "words_copied"))
                    (ratio (stat "seg_alloc_words"))
                    (pct cc.ms c1.ms);
                  print_string
                    "  (paper: 300% faster on native code where overflow cost \
                     dominates;\n\
                    \   our interpreter dispatch mutes the wall-clock ratio -- \
                     the copy and\n\
                    \   allocation counters carry the effect)\n"
              | _ -> assert false);
          });
    spec "e4"
      "E4 (Section 5): per-frame overhead, segmented stack vs heap frames \
       (Appel-Shao comparison)"
      ~quick:() ~full:() (fun () ->
        let workloads =
          [
            ("tak", "(tak 16 11 5)");
            ("fib", "(fib 18)");
            ("ack", "(ack 2 6)");
            ("queens", "(queens-count 7)");
            ("boyer", "(boyer-run 12)");
            ("cpstak", "(cpstak 14 10 5)");
            ("takl", "(takl 14 10 5)");
            ("div", "(div-bench 200 40)");
            ("destruct", "(destruct-bench 20 40 40)");
            ("mandel", "(mandel-count 24 30)");
            ("deep", "(deep-loop 2 20000)");
          ]
        in
        let heap m = match m.v.backend with Scheme.Heap -> true | _ -> false in
        let per_call f m = float (f m) /. float (max 1 m.st.Stats.calls) in
        let col header f =
          (header, fun m -> Printf.sprintf "%.3f" (per_call f m))
        in
        let words m =
          if heap m then m.st.Stats.heap_frame_words
          else m.st.Stats.seg_alloc_words
        in
        let on key label backend =
          variant key label ~backend (List.map snd workloads)
        in
        table
          {
            intro =
              "  overhead per procedure call: frame words allocated, words \
               copied (stack)\n\
              \  or copy-on-write frame copies (heap), closures made\n";
            head = "";
            rows = List.map fst workloads;
            variants =
              [
                on "e4.stack" "stack" (Scheme.Stack Control.default_config);
                on "e4.heap" "heap" Scheme.Heap;
              ];
            cols =
              [
                col "words" words;
                col "copied" (fun m ->
                    if heap m then m.st.Stats.cow_copies
                    else m.st.Stats.words_copied);
                col "closures" (fun m -> m.st.Stats.closures_made);
              ];
            footer =
              (function
              | [ st; hp ] ->
                  let sum f = List.fold_left (fun acc m -> acc +. f m) 0. in
                  let mean ms =
                    sum (per_call words) ms /. float (List.length ms)
                  in
                  let total = sum (fun m -> m.ms) in
                  Printf.printf
                    "  mean words/call: stack VM %.3f vs heap VM %.3f (paper: \
                     0.1 vs 7.4 instructions of per-frame overhead)\n"
                    (mean st) (mean hp);
                  Printf.printf
                    "  wall clock over the corpus: stack %.1f ms, heap %.1f \
                     ms\n"
                    (total st) (total hp)
              | _ -> assert false);
          });
    spec "e5"
      "E5: dynamic-wind -- deep wind/unwind, one-shot escape through the \
       winder chain"
      ~quick:(200, 50) ~full:(2_000, 100) (fun (times, depth) ->
        let winders key label scheme_winders =
          variant key label ~scheme_winders
            ~setup:[ wind_defs ]
            [ Printf.sprintf "(wind-escape-loop %d %d)" times depth ]
            ~extra:[ captures; stat "closures_made" ]
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: %d escapes, each entering %d nested dynamic-winds \
                 and escaping\n\
                \  through all of them with a call/1cc continuation (%d guard \
                 thunks/escape)\n"
                times depth (2 * depth);
            head = "winders";
            rows = [];
            variants =
              [
                winders "e5.dynamic-wind" "native" false;
                winders "e5.dynamic-wind-scheme" "scheme-winders" true;
              ];
            cols =
              [
                time_ms;
                count "instrs" (stat "instrs");
                count "captures" captures;
                count "closures" (stat "closures_made");
              ];
            footer =
              (function
              | [ [ native ]; [ scheme ] ] ->
                  Printf.printf
                    "  native winders: %.0f%% faster than the Scheme-level \
                     protocol\n"
                    (pct scheme.ms native.ms)
              | _ -> assert false);
          });
    spec "e9" ~in_all:false
      "E9: data-parallel par-map/par-reduce over a worker-shard pool"
      ~quick:
        [
          ("fib", "(par-reduce + 0 (par-map fib (iota 16)))");
          ("queens", "(par-map queens-count '(5 5 5 5 6 6 6 6))");
          ("boyer", "(par-map boyer-run '(8 8 8 8 10 10 10 10))");
        ]
      ~full:
        [
          ("fib", "(par-reduce + 0 (par-map fib (iota 20)))");
          ("queens", "(par-map queens-count '(7 7 7 7 7 7 7 7))");
          ("boyer", "(par-map boyer-run '(12 12 12 12 12 12 12 12))");
        ]
      e9;
    spec "a1"
      "A1: segment cache on/off (paper: without it, call/1cc programs were \
       'unacceptably slow')"
      ~quick:(20, 13) ~full:(100, 16) (fun (nthreads, fib_n) ->
        let freq = 4 in
        let cache key label on =
          variant key label
            ~backend:(stack (fun c -> { c with Control.cache_enabled = on }))
            [
              Printf.sprintf "(run-fib-threads %d %d %d %%call/1cc)" nthreads
                fib_n freq;
            ]
            ~extra:[ stat "seg_allocs" ]
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: %d call/1cc threads of (fib %d), switch every %d \
                 calls\n"
                nthreads fib_n freq;
            head = "cache";
            rows = [];
            variants =
              [
                cache "a1.cache-on" "enabled" true;
                cache "a1.cache-off" "disabled" false;
              ];
            cols =
              [
                time_ms;
                count "alloc-segs" (stat "seg_allocs");
                count "alloc(w)" (stat "seg_alloc_words");
                count "cache-hits" (stat "cache_hits");
              ];
            footer = ignore;
          });
    spec "a2" "A2: overflow hysteresis (copy-up) prevents bouncing"
      ~quick:2_000 ~full:8_000 (fun depth ->
        let hysteresis h =
          variant
            (Printf.sprintf "a2.hysteresis-%d" h)
            (string_of_int h)
            ~backend:
              (stack (fun c ->
                   { c with Control.seg_words = 1024; hysteresis_words = h }))
            ~setup:
              [
                {|(define (wiggle n) (if (= n 0) 0 (+ 1 (wiggle (- n 1)))))
                  (define (crawl n)
                    (if (= n 0) 0 (begin (wiggle 12) (+ 1 (crawl (- n 1))))))|};
              ]
            [ Printf.sprintf "(crawl %d)" depth ]
            ~extra:[ stat "overflows" ]
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: crawl to depth %d on 1K-word segments, \
                 oscillating 12 frames at every depth -- oscillations that \
                 straddle a segment boundary bounce unless the copied-up \
                 frames absorb them\n"
                depth;
            head = "hysteresis(words)";
            rows = [];
            variants = List.map hysteresis [ 0; 16; 64; 256 ];
            cols =
              [
                time_ms;
                count "overflows" (stat "overflows");
                count "copied(w)" (stat "words_copied");
              ];
            footer = ignore;
          });
    spec "a3"
      "A3: copy bound caps the latency of one multi-shot invocation \
       (splitting)"
      ~quick:1_000 ~full:4_000 a3;
    spec "a4"
      "A4 (Section 3.4): one-shot fragmentation -- whole-segment vs \
       seal-displacement"
      ~quick:32 ~full:100 a4;
    spec "a5"
      "A5 (Section 3.3): promotion cost -- eager chain walk vs shared flag"
      ~quick:2_000 ~full:10_000 (fun chain ->
        let promotion key label p =
          variant key label
            ~backend:(stack (fun c -> { c with Control.promotion = p }))
            ~setup:
              [
                Printf.sprintf
                  {|(define (nest n thunk)
                      (if (= n 0)
                          (thunk)
                          ;; non-tail capture: every level creates a live record
                          (+ 1 (%%call/1cc (lambda (k) (nest (- n 1) thunk))))))
                    (define (measure)
                      (nest %d (lambda () (%%call/cc (lambda (m) 0)))))|}
                  chain;
              ]
            [ "(measure)" ] ~extra:[ stat "promotions" ]
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: call/cc capturing above %d live one-shot records\n"
                chain;
            head = "strategy";
            rows = [];
            variants =
              [
                promotion "a5.eager" "eager" Control.Eager;
                promotion "a5.shared-flag" "shared-flag" Control.Shared_flag;
              ];
            cols =
              [
                ("time(us)", fun m -> Printf.sprintf "%.1f" (m.ms *. 1000.));
                count "promotions" (stat "promotions");
              ];
            footer = ignore;
          });
    spec "a6"
      "A6 (extension): capture strategy -- paper's zero-copy sealing vs the \
       classic eager copy-on-capture"
      ~quick:(16, 11, 5) ~full:(18, 12, 6) (fun (x, y, z) ->
        let capture key label strategy =
          variant key label
            ~backend:(stack (fun c -> { c with Control.capture = strategy }))
            ~setup:[ "(set! ctak-capture %call/cc)" ]
            [ Printf.sprintf "(ctak %d %d %d)" x y z ]
        in
        (* Under Seal all copying happens at invocation; under
           Copy_on_capture words_copied counts both directions, which for
           ctak are symmetric. *)
        let copied ~at_capture m =
          let w = m.st.Stats.words_copied in
          match m.v.backend with
          | Scheme.Stack { Control.capture = Control.Copy_on_capture; _ } ->
              string_of_int (w / 2)
          | _ -> string_of_int (if at_capture then 0 else w)
        in
        table
          {
            intro =
              Printf.sprintf
                "  workload: (ctak %d %d %d) with %%call/cc -- a capture at \
                 every call\n"
                x y z;
            head = "capture strategy";
            rows = [];
            variants =
              [
                capture "a6.seal" "seal (paper)" Control.Seal;
                capture "a6.copy-on-capture" "copy-on-capture"
                  Control.Copy_on_capture;
              ];
            cols =
              [
                time_ms;
                ("copied@capture", copied ~at_capture:true);
                ("copied@invoke", copied ~at_capture:false);
              ];
            footer = ignore;
          });
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let ids = String.concat ", " (List.map (fun s -> s.id) specs) in
  let which = ref None in
  let positive name r doc =
    let set k =
      if k < 1 then
        raise
          (Arg.Bad
             (Printf.sprintf "%s expects a positive integer, got %d" name k));
      r := k
    in
    (name, Arg.Int set, doc)
  in
  Arg.parse
    (Arg.align
       [
         ("--full", Arg.Set full_mode, " paper-scale workloads");
         ("--json", Arg.Set_string json_path, "FILE write the metrics as JSON");
         positive "--iters" iters
           "N timed runs per measurement, after one warm-up (default 1)";
         positive "--jobs" jobs "N e9 worker shards (default 4)";
         positive "--par-chunk" chunk "N e9 items per task (default 2)";
         ("--sequential", Arg.Set sequential, " e9: run the shards inline");
         ( "--no-steal",
           Arg.Set no_steal,
           " e9: pin round-robin task placement" );
       ])
    (fun x ->
      if !which <> None then raise (Arg.Bad "one experiment at a time");
      if x <> "all" && not (List.exists (fun s -> s.id = x) specs) then
        raise
          (Arg.Bad
             (Printf.sprintf "unknown experiment %s (expected %s, all)" x ids));
      which := Some x)
    (Printf.sprintf "main.exe [%s | all] [options]" ids);
  Printf.printf "oneshot-continuations benchmark harness (%s mode%s)\n"
    (if !full_mode then "full/paper-scale" else "quick")
    (if !iters > 1 then
       Printf.sprintf ", %d iterations/measurement, reporting min + median"
         !iters
     else "");
  let which = Option.value !which ~default:"all" in
  List.iter
    (fun s ->
      if s.id = which || (which = "all" && s.in_all) then (
        Printf.printf "\n== %s\n" s.title;
        s.run ()))
    specs;
  if !json_path <> "" then (
    write_json !json_path;
    Printf.printf "\nwrote %s\n" !json_path)
