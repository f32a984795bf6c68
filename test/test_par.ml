(* Differential suite for the data-parallel layer (DESIGN.md §15):
   par-map/par-reduce/par-for-each against their serial counterparts,
   the flat-value protocol's structured errors, control effects
   (call/1cc, error escapes) inside worker tasks, and the no-steal
   counter identities the e9 bench and CI pin. *)

open Tutil

(* A session with an attached pool.  [domains:false] runs the worker
   shards inline on the calling domain — same sessions, same task
   order — which keeps most of the suite single-domain and fast;
   dedicated cases below exercise the real domain pool. *)
let with_par ?(backend = Scheme.Stack Control.default_config) ?hygiene
    ?(jobs = 2) ?(chunk = 2) ?(steal = true) ?(domains = false)
    ?(corpus = false) f =
  let s = Scheme.create ~backend ?hygiene () in
  if corpus then Scheme.load_corpus s;
  Scheme.par_attach ~chunk ~steal ~domains ~corpus ~jobs s;
  Fun.protect ~finally:(fun () -> Scheme.par_shutdown s) (fun () -> f s)

let peval s src = Scheme.eval_string ~fuel:default_fuel s src

(* Evaluate [defs] one by one (so the pool logs them for the workers),
   then [expr]. *)
let run_par ?backend ?jobs ?chunk ?steal ?domains ?corpus defs expr =
  with_par ?backend ?jobs ?chunk ?steal ?domains ?corpus (fun s ->
      List.iter (fun d -> ignore (peval s d)) defs;
      peval s expr)

let defs_square = [ "(define (square x) (* x x))" ]

let check_par ?backend ?jobs ?chunk ?steal ?domains ?corpus name defs expr
    expected =
  case name (fun () ->
      Alcotest.(check string)
        expr expected
        (run_par ?backend ?jobs ?chunk ?steal ?domains ?corpus defs expr))

(* par result = serial result, computed on a plain session (the
   (%par-jobs) = 0 fallback path). *)
let check_diff ?backend ?jobs ?chunk name defs par_expr serial_expr =
  case name (fun () ->
      let serial =
        let s = Scheme.create ?backend () in
        List.iter (fun d -> ignore (peval s d)) defs;
        peval s serial_expr
      in
      let par = run_par ?backend ?jobs ?chunk defs par_expr in
      Alcotest.(check string) par_expr serial par)

let par_error ?backend ?jobs ?chunk ?domains name defs expr substr =
  case name (fun () ->
      match run_par ?backend ?jobs ?chunk ?domains defs expr with
      | v -> Alcotest.failf "expected error, got %s" v
      | exception Rt.Scheme_error (msg, _) ->
          if not (contains ~sub:substr msg) then
            Alcotest.failf "error %S does not mention %S" msg substr)

(* ------------------------------------------------------------------ *)
(* No-steal counter identity: same chunks, any distribution, same      *)
(* summed deterministic counters.                                      *)
(* ------------------------------------------------------------------ *)

let shard_sum s name =
  Array.fold_left
    (fun acc st ->
      match st with Some st -> acc + Stats.get st name | None -> acc)
    0
    (Scheme.par_shard_stats s)

let det_counters = [ "instrs"; "words-copied"; "seg-alloc-words"; "par-tasks" ]

let measure_sums ~jobs ~domains expr =
  with_par ~jobs ~chunk:2 ~steal:false ~domains ~corpus:true (fun s ->
      ignore (peval s expr);
      List.map (fun n -> (n, shard_sum s n)) det_counters)

let counter_identity_case =
  case "no-steal shard sums = 1-worker run [stack]" (fun () ->
      let expr = "(par-reduce + 0 (par-map fib (iota 12)))" in
      let one = measure_sums ~jobs:1 ~domains:false expr in
      let four = measure_sums ~jobs:4 ~domains:false expr in
      List.iter2
        (fun (n, a) (_, b) ->
          Alcotest.(check int) ("sum of " ^ n) a b)
        one four)

let domain_identity_case =
  case "no-steal domains = sequential shards [stack]" (fun () ->
      let expr = "(par-map fib (iota 10))" in
      let run ~domains =
        with_par ~jobs:2 ~chunk:2 ~steal:false ~domains ~corpus:true (fun s ->
            let v = peval s expr in
            let sums = List.map (fun n -> (n, shard_sum s n)) det_counters in
            (v, sums))
      in
      let v_dom, sums_dom = run ~domains:true in
      let v_seq, sums_seq = run ~domains:false in
      Alcotest.(check string) expr v_seq v_dom;
      List.iter2
        (fun (n, a) (_, b) -> Alcotest.(check int) ("shard sum " ^ n) b a)
        sums_dom sums_seq)

(* The steady state: each chunk starts on a cache reset to its warm
   canonical size, so fib chunks that fit never allocate a segment. *)
let warm_cache_case =
  case "warm chunks allocate no segment [stack]" (fun () ->
      with_par ~jobs:2 ~chunk:2 ~steal:false ~corpus:true (fun s ->
          ignore (peval s "(par-map fib (iota 12))");
          Alcotest.(check int) "tasks" 6 (shard_sum s "par-tasks");
          Alcotest.(check int) "seg-alloc-words" 0
            (shard_sum s "seg-alloc-words")))

(* A chunk that overflows needs more segments than the warm cache
   holds: it allocates, releases the surplus back into the cache, and
   the next chunk's reset trims it.  The shard sums must still be
   distribution-invariant. *)
let trim_identity_case =
  case "no-steal identity with overflowing chunks [stack]" (fun () ->
      let defs =
        [ "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))" ]
      in
      let expr = "(par-map deep '(20000 3 25000 30000 5 20000 7 40000))" in
      let measure ~jobs =
        with_par ~jobs ~chunk:2 ~steal:false (fun s ->
            List.iter (fun d -> ignore (peval s d)) defs;
            let v = peval s expr in
            (v, List.map (fun n -> (n, shard_sum s n)) det_counters))
      in
      let v1, one = measure ~jobs:1 in
      let v4, four = measure ~jobs:4 in
      Alcotest.(check string) "values" v1 v4;
      Alcotest.(check string) "result" "(20000 3 25000 30000 5 20000 7 40000)"
        v1;
      if List.assoc "seg-alloc-words" one <= 0 then
        Alcotest.fail "expected chunks that outgrow the warm cache";
      List.iter2
        (fun (n, a) (_, b) -> Alcotest.(check int) ("sum of " ^ n) a b)
        one four)

(* Workers compile each chunk driver once; a master redefinition must
   still reach the next dispatch. *)
let driver_cache_case (bname, backend) =
  case (Printf.sprintf "redefined task procedure reaches cached driver [%s]"
          bname) (fun () ->
      with_par ~backend ~jobs:1 (fun s ->
          ignore (peval s "(define (f x) (* x 2))");
          Alcotest.(check string) "first" "(2 4 6)"
            (peval s "(par-map f '(1 2 3))");
          Alcotest.(check string) "again" "(8 10)"
            (peval s "(par-map f '(4 5))");
          ignore (peval s "(define (f x) (+ x 100))");
          Alcotest.(check string) "redefined" "(101 102 103)"
            (peval s "(par-map f '(1 2 3))");
          ignore (peval s "(set! f (lambda (x) (list x)))");
          Alcotest.(check string) "reassigned" "((1) (2))"
            (peval s "(par-map f '(1 2))")))

(* Workers are built from the master's own settings: swap! in a task
   procedure captures the use-site tmp on the workers exactly when it
   does on the master. *)
let hygiene_inherited_case hygiene =
  case
    (Printf.sprintf "workers inherit the master's hygiene [%s]"
       (if hygiene then "on" else "off"))
    (fun () ->
      with_par ~hygiene (fun s ->
          List.iter
            (fun d -> ignore (peval s d))
            [
              "(define-syntax swap!\n\
              \  (syntax-rules ()\n\
              \    ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))";
              "(define (f x)\n\
              \  (let ((tmp x) (other 0)) (swap! tmp other) (list tmp other)))";
            ];
          let serial = peval s "(map f '(1 2))" in
          Alcotest.(check string) "master"
            (if hygiene then "((0 1) (0 2))" else "((1 0) (2 0))")
            serial;
          Alcotest.(check string) "workers" serial
            (peval s "(par-map f '(1 2))")))

(* Worker output is taken per chunk, not re-copied from the start of the
   worker's buffer, and still stitches back in chunk order. *)
let output_order_case ?(domains = false) ~jobs () =
  case
    (Printf.sprintf "par-for-each output over 45 chunks = for-each [%d jobs%s]"
       jobs
       (if domains then ", domains" else ""))
    (fun () ->
      let def = "(define (show x) (display x) (display \",\"))" in
      let serial =
        let s = Scheme.create () in
        ignore (peval s def);
        ignore (peval s "(for-each show (iota 45))");
        Scheme.output s
      in
      with_par ~jobs ~chunk:1 ~domains (fun s ->
          ignore (peval s def);
          ignore (peval s "(par-for-each show (iota 45))");
          Alcotest.(check string) "output" serial (Scheme.output s)))

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("heap", Scheme.Heap);
  ]

let per_backend =
  List.concat_map
    (fun (bname, backend) ->
      [
        check_par ~backend
          (Printf.sprintf "par-map squares [%s]" bname)
          defs_square "(par-map square (iota 10))"
          "(0 1 4 9 16 25 36 49 64 81)";
        check_diff ~backend
          (Printf.sprintf "par-map = map [%s]" bname)
          defs_square "(par-map square (iota 17))" "(map square (iota 17))";
        check_diff ~backend
          (Printf.sprintf "par-reduce = fold-left [%s]" bname)
          defs_square "(par-reduce + 0 (par-map square (iota 23)))"
          "(fold-left + 0 (map square (iota 23)))";
      ])
    backends

let suite =
  per_backend
  @ [
      (* fallback without a pool: par-* are the serial library *)
      check_eval "par-map serial fallback"
        "(begin (define (d x) (* 2 x)) (par-map d '(1 2 3)))" "(2 4 6)";
      check_eval "par-reduce serial fallback" "(par-reduce + 1 '(1 2 3))" "7";
      check_eval "par-for-each serial fallback"
        "(let ((n 0)) (par-for-each (lambda (x) (set! n (+ n x))) '(1 2 3)) n)"
        "6";
      (* chunking edges *)
      check_par ~chunk:1 "chunk 1" defs_square "(par-map square (iota 7))"
        "(0 1 4 9 16 25 36)";
      check_par ~chunk:5 "chunk 5" defs_square "(par-map square (iota 7))"
        "(0 1 4 9 16 25 36)";
      check_par "empty list" defs_square "(par-map square '())" "()";
      check_par "singleton" defs_square "(par-map square '(6))" "(36)";
      check_par ~jobs:3 ~chunk:2 "par-reduce partials" []
        "(par-reduce + 0 '(1 2 3 4 5 6 7 8 9 10))" "55";
      (* primitives ship by name; flat argument/result round trips *)
      check_par "prim task" [] "(par-map 1+ '(1 2 3))" "(2 3 4)";
      check_par "flat data round trip" defs_square
        "(par-map car '((a 1) (#\\x \"s\") ((1 2) 3) (#(1 2) 4)))"
        "(a #\\x (1 2) #(1 2))";
      (* par-for-each: worker display output is stitched back in chunk
         order *)
      case "par-for-each output stitching" (fun () ->
          with_par ~jobs:2 ~chunk:1 ~steal:false (fun s ->
              ignore (peval s "(par-for-each display '(1 2 3 4 5))");
              Alcotest.(check string) "output" "12345" (Scheme.output s)));
      (* control effects inside worker tasks *)
      check_par "call/1cc in task"
        [
          "(define (escape x) (%call/1cc (lambda (k) (k (* 10 x)) 'dead)))";
        ]
        "(par-map escape '(1 2 3))" "(10 20 30)";
      check_par ~corpus:true "ctak in task (one-shot heavy)"
        [ "(set! ctak-capture %call/1cc)"; "(define (ct x) (ctak 8 5 x))" ]
        "(par-map ct '(1 2))" "(5 5)";
      check_par "error handler inside task"
        [
          "(define (guarded x) (try (lambda () (if (= x 2) (error 'boom \
           \"two\") x)) (lambda (m) 'caught)))";
        ]
        "(par-map guarded '(1 2 3))" "(1 caught 3)";
      par_error "error escapes task" [ "(define (blow x) (error 'blow \"x\"))" ]
        "(par-map blow '(1 2 3))" "blow: x";
      par_error ~domains:true "error escapes task [domains]"
        [ "(define (blow x) (error 'blow \"x\"))" ] "(par-map blow '(1 2))"
        "blow: x";
      (* flat-value protocol: structured errors on both directions *)
      par_error "non-flat argument" defs_square
        "(par-map square (list 1 square 3))" "non-flat value";
      par_error "non-flat result" [ "(define (mk x) (lambda () x))" ]
        "(par-map mk '(1 2))" "non-flat value";
      par_error "anonymous procedure" [] "(par-map (lambda (x) x) '(1 2))"
        "globally named";
      par_error "unknown mode" [] "(%par-dispatch 'zipper car '(1 2))"
        "par: unknown mode zipper";
      par_error "improper list" defs_square "(par-map square (cons 1 2))"
        "proper list";
      (* one-shot switches actually happen and are counted *)
      case "par-switches counted under preemption" (fun () ->
          with_par ~jobs:1 ~chunk:4 ~steal:false ~corpus:true (fun s ->
              ignore (peval s "(par-map fib (list 14 14 14 14))");
              let switches = shard_sum s "par-switches" in
              if switches <= 0 then
                Alcotest.failf "expected fiber switches, got %d" switches;
              Alcotest.(check int) "tasks" 1 (shard_sum s "par-tasks")));
      (* real domain pool end to end, with stealing enabled *)
      check_par ~domains:true ~jobs:2 ~steal:true ~corpus:true
        "domain pool with stealing" []
        "(par-reduce + 0 (par-map fib (iota 14)))" "609";
      (* master definitions reach the workers through the log, including
         later redefinition *)
      case "definition log replay sees redefinition" (fun () ->
          with_par ~jobs:2 (fun s ->
              ignore (peval s "(define (g x) (* x 2))");
              Alcotest.(check string) "first" "(2 4)" (peval s "(par-map g '(1 2))");
              ignore (peval s "(define (g x) (* x 3))");
              Alcotest.(check string) "redefined" "(3 6)"
                (peval s "(par-map g '(1 2))")));
      counter_identity_case;
      domain_identity_case;
      warm_cache_case;
      trim_identity_case;
      output_order_case ~jobs:3 ();
      output_order_case ~domains:true ~jobs:2 ();
      hygiene_inherited_case true;
      hygiene_inherited_case false;
    ]
  @ List.map driver_cache_case backends
  @ [
      (* no-steal round-robin pins tasks: with 2 jobs and 4 chunks each
         shard executes exactly 2 *)
      case "no-steal task assignment" (fun () ->
          with_par ~jobs:2 ~chunk:1 ~steal:false (fun s ->
              ignore (peval s "(define (i x) x)");
              ignore (peval s "(par-map i '(1 2 3 4))");
              let per_shard =
                Array.to_list (Scheme.par_shard_stats s)
                |> List.map (function
                     | Some st -> Stats.get st "par-tasks"
                     | None -> 0)
              in
              Alcotest.(check (list int)) "tasks per shard" [ 2; 2 ] per_shard));
    ]
