(* The CSP prime sieve over CML-style channels: a chain of filter threads
   grows as primes are discovered; every inter-stage handoff parks one
   thread's one-shot continuation and resumes another's — hundreds of
   context switches with zero stack copying.

   Run with: dune exec examples/sieve.exe *)

let () =
  print_endline "== concurrent prime sieve over channels ==\n";
  let stats = Stats.create () in
  let s =
    Scheme.create ~backend:(Scheme.Stack Control.default_config) ~stats ()
  in
  Scheme.load_corpus s;
  ignore (Scheme.eval s Cml.source);
  let primes =
    Scheme.eval_string s
      {|(let ((primes '()))
          (define (counter out)
            ;; feed 2,3,4,... into the pipeline
            (lambda ()
              (let loop ((i 2))
                (channel-send out i)
                (loop (+ i 1)))))
          (define (filter-stage p in out)
            ;; drop multiples of p, forward the rest
            (lambda ()
              (let loop ()
                (let ((n (channel-recv in)))
                  (if (not (= 0 (remainder n p)))
                      (channel-send out n))
                  (loop)))))
          (define (sink in count done)
            ;; each value arriving at the end of the chain is prime;
            ;; extend the chain with a new filter for it
            (lambda ()
              (let loop ((in in) (n count))
                (if (= n 0)
                    (channel-send done 'finished)
                    (let ((p (channel-recv in)))
                      (set! primes (cons p primes))
                      (let ((next (make-channel)))
                        (spawn (filter-stage p in next))
                        (loop next (- n 1))))))))
          (let ((first (make-channel)) (done (make-channel)))
            (run-threads
             (list (counter first)
                   (sink first 25 done)
                   (lambda () (channel-recv done)))
             200 %call/1cc))
          (reverse primes))|}
  in
  Printf.printf "first 25 primes: %s\n" primes;
  Printf.printf
    "\n%d one-shot parks/resumes, %d words of stack copied, %d segment \
     cache hits\n"
    stats.Stats.invokes_oneshot stats.Stats.words_copied
    stats.Stats.cache_hits
