(* CML-style channels and mailboxes over one-shot continuations. *)

let case = Tutil.case

let run ?(config = Control.default_config) src =
  let stats = Stats.create () in
  let s = Scheme.create ~backend:(Scheme.Stack config) ~stats () in
  Scheme.load_corpus s;
  ignore (Scheme.eval s Cml.source);
  (Scheme.eval_string ~fuel:Tutil.default_fuel s src, stats)

let check name src expected =
  case name (fun () ->
      Alcotest.(check string) src expected (fst (run src)))

let suite =
  [
    check "producer/consumer rendezvous"
      {|(let ((ch (make-channel)) (out '()))
          (run-threads
           (list
            (lambda ()
              (let loop ((i 0))
                (if (< i 5)
                    (begin (channel-send ch i) (loop (+ i 1)))
                    (channel-send ch 'done))))
            (lambda ()
              (let loop ()
                (let ((v (channel-recv ch)))
                  (set! out (cons v out))
                  (if (eq? v 'done) 'fin (loop))))))
           50 %call/1cc)
          (reverse out))|}
      "(0 1 2 3 4 done)";
    check "receiver arrives first"
      {|(let ((ch (make-channel)) (got #f))
          (run-threads
           (list
            (lambda () (set! got (channel-recv ch)))
            (lambda () (channel-send ch 'hello)))
           100 %call/1cc)
          got)|}
      "hello";
    check "many producers one consumer"
      {|(let ((ch (make-channel)) (sum 0))
          (run-threads
           (cons
            (lambda ()
              (let loop ((n 6))
                (if (> n 0) (begin (set! sum (+ sum (channel-recv ch)))
                                   (loop (- n 1))))))
            (map (lambda (i) (lambda () (channel-send ch i) (channel-send ch i)))
                 '(1 2 3)))
           20 %call/1cc)
          sum)|}
      "12";
    check "spawn from a running thread"
      {|(let ((out '()))
          (run-threads
           (list
            (lambda ()
              (spawn (lambda () (set! out (cons 'child out))))
              (set! out (cons 'parent out))))
           100 %call/1cc)
          (reverse out))|}
      "(parent child)";
    check "yield interleaves cooperatively"
      {|(let ((out '()))
          (define (worker tag)
            (lambda ()
              (set! out (cons tag out)) (yield)
              (set! out (cons tag out))))
          (run-threads (list (worker 'a) (worker 'b)) 1000000 %call/1cc)
          (reverse out))|}
      "(a b a b)";
    check "pipeline of channels"
      {|(let ((c1 (make-channel)) (c2 (make-channel)) (out '()))
          (run-threads
           (list
            (lambda () (for-each (lambda (i) (channel-send c1 i)) '(1 2 3))
                       (channel-send c1 'eof))
            (lambda ()
              (let loop ()
                (let ((v (channel-recv c1)))
                  (if (eq? v 'eof)
                      (channel-send c2 'eof)
                      (begin (channel-send c2 (* v 10)) (loop))))))
            (lambda ()
              (let loop ()
                (let ((v (channel-recv c2)))
                  (if (eq? v 'eof) 'fin
                      (begin (set! out (cons v out)) (loop)))))))
           30 %call/1cc)
          (reverse out))|}
      "(10 20 30)";
    check "cml-select picks the ready channel"
      {|(let ((a (make-channel)) (b (make-channel)) (got #f))
          (run-threads
           (list
            (lambda () (channel-send b 'from-b))
            (lambda ()
              (let ((r (cml-select (list a b))))
                (set! got (cdr r)))))
           100 %call/1cc)
          got)|}
      "from-b";
    check "mailbox buffers without blocking sender"
      {|(let ((m (make-mailbox)) (out '()))
          (run-threads
           (list
            (lambda ()
              (mailbox-post! m 1) (mailbox-post! m 2) (mailbox-post! m 3))
            (lambda ()
              (set! out (list (mailbox-take m) (mailbox-take m) (mailbox-take m)))))
           100 %call/1cc)
          out)|}
      "(1 2 3)";
    check "mailbox blocks empty receiver until post"
      {|(let ((m (make-mailbox)) (got #f))
          (run-threads
           (list
            (lambda () (set! got (mailbox-take m)))
            (lambda () (mailbox-post! m 'late)))
           100 %call/1cc)
          got)|}
      "late";
    case "channel switches copy no stack words" (fun () ->
        let v, st =
          run
            {|(let ((ch (make-channel)) (n 0))
                (run-threads
                 (list
                  (lambda () (let loop ((i 0))
                               (if (< i 50)
                                   (begin (channel-send ch i) (loop (+ i 1))))))
                  (lambda () (let loop ((i 0))
                               (if (< i 50)
                                   (begin (set! n (+ n (channel-recv ch)))
                                          (loop (+ i 1)))))))
                 1000000 %call/1cc)
                n)|}
        in
        Alcotest.(check string) "sum" "1225" v;
        Alcotest.(check int) "no copying" 0 st.Stats.words_copied;
        Alcotest.(check bool) "many parks" true (st.Stats.captures_oneshot > 50));
    case "channels work across tiny segments" (fun () ->
        let v, _ =
          run ~config:Tutil.tiny_config
            {|(let ((ch (make-channel)) (out 0))
                (run-threads
                 (list
                  (lambda () (channel-send ch (fib 10)))
                  (lambda () (set! out (channel-recv ch))))
                 10 %call/1cc)
                out)|}
        in
        Alcotest.(check string) "fib" "55" v);
  ]
