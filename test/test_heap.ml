(* Heap-VM-specific behaviour: per-call frame allocation, copy-on-write
   sharing for multi-shot reinstatement, and guard-based one-shot parity. *)

let case = Tutil.case

let run src =
  let stats = Stats.create () in
  let vm = Heapvm.create ~stats () in
  let eval src =
    Heapvm.run_program ~fuel:Tutil.default_fuel vm
      (Compiler.compile_string ~menv:vm.Engine.menv (Heapvm.globals vm) src)
  in
  ignore (eval Prelude.source);
  let v = Values.write_string (eval src) in
  (v, stats)

let suite =
  [
    case "every call allocates a frame" (fun () ->
        let _, st = run "(define (f n) (if (= n 0) 0 (f (- n 1)))) (f 100)" in
        Alcotest.(check bool) "frames allocated" true
          (st.Stats.heap_frames > 100);
        Alcotest.(check bool) "frame words accounted" true
          (st.Stats.heap_frame_words > st.Stats.heap_frames));
    case "capture is pointer sharing (no stack copying)" (fun () ->
        let _, st =
          run "(define (f) (%call/cc (lambda (k) (k 1)))) (f)"
        in
        Alcotest.(check int) "no stack words copied" 0 st.Stats.words_copied);
    case "re-entry with temp mutation is sound (COW)" (fun () ->
        (* Without copy-on-write the second re-entry would observe the
           mutated temporaries of the first. *)
        let v, st =
          run
            {|(let ((k #f) (n 0) (acc '()))
                (+ 1 (%call/cc (lambda (c) (set! k c) 0)))
                (set! n (+ n 1))
                (set! acc (cons n acc))
                (if (< n 4) (k n) acc))|}
        in
        Alcotest.(check string) "accumulated" "(4 3 2 1)" v;
        Alcotest.(check bool) "cow copies happened" true
          (st.Stats.cow_copies > 0));
    case "one-shot guard consumed exactly once" (fun () ->
        let v, _ =
          run
            {|(let ((k #f))
                (define (go) (%call/1cc (lambda (c) (set! k c))) 'ret)
                (go)
                (%continuation-shot? k))|}
        in
        Alcotest.(check string) "shot after return" "#t" v);
    case "guards propagate through tail calls" (fun () ->
        let v, _ =
          run
            {|(let ((k #f))
                (define (tail-middle)
                  (%call/1cc (lambda (c) (set! k c) (middle))))
                (define (middle) 'done)
                (tail-middle)
                (%continuation-shot? k))|}
        in
        (* middle's return passes through the guarded frame chain *)
        Alcotest.(check string) "consumed" "#t" v);
    case "invoking an abandoned extent's continuation still works" (fun () ->
        (* A continuation does not get consumed by being jumped over. *)
        let v, _ =
          run
            {|(let ((k1 #f) (out '()))
                (call/cc (lambda (esc)
                  (call/cc (lambda (c) (set! k1 c)))
                  (set! out (cons 'body out))
                  (esc 'gone)))
                (if (= (length out) 1) (k1 #f) (length out)))|}
        in
        Alcotest.(check string) "re-entered" "2" v);
    case "deep recursion does not overflow anything" (fun () ->
        let v, st =
          run "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 20000)"
        in
        Alcotest.(check string) "value" "200010000" v;
        Alcotest.(check int) "no overflow machinery" 0 st.Stats.overflows);
  ]
