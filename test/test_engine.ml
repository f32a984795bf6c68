(* The unified execution core (lib/engine instantiated by the stack and
   heap frame policies) must keep sessions fully independent: each
   Scheme.t owns its machine, stats, globals, macro tables, output
   buffer and (stack backend) segment cache, so interleaving sessions —
   or running them on separate OCaml domains — never lets one
   observe another.  These tests pin that property, plus the pieces the
   unification is allowed to share: the single fuel-exhaustion exception
   and the oracle's now-live counters. *)

let eval s src = Values.write_string (Scheme.eval s src)

(* Two sessions on different policies of the same engine, interleaved:
   same-named globals diverge, outputs accumulate separately. *)
let interleaved_backends () =
  let a = Scheme.create () in
  let b = Scheme.create ~backend:Scheme.Heap () in
  ignore
    (Scheme.eval a
       "(define (f n) (if (< n 2) n (+ (f (- n 1)) (f (- n 2)))))");
  ignore (Scheme.eval b "(define (f n) (* n 10))");
  Alcotest.(check string) "stack f" "8" (eval a "(f 6)");
  Alcotest.(check string) "heap f" "60" (eval b "(f 6)");
  ignore (Scheme.eval b "(define only-in-b 1)");
  (match Scheme.eval a "only-in-b" with
  | _ -> Alcotest.fail "session a sees session b's global"
  | exception Rt.Scheme_error _ -> ());
  ignore (Scheme.eval a "(display \"A\")");
  ignore (Scheme.eval b "(display \"B\")");
  ignore (Scheme.eval a "(display \"A\")");
  Alcotest.(check string) "a output" "AA" (Scheme.output a);
  Alcotest.(check string) "b output" "B" (Scheme.output b)

(* Counters are per-session: work in one session never ticks another,
   and each stack machine warms its own segment cache. *)
let independent_stats () =
  let a = Scheme.create () in
  let b = Scheme.create () in
  Stats.reset (Scheme.stats a);
  Stats.reset (Scheme.stats b);
  ignore
    (Scheme.eval a
       "(let loop ((i 0) (acc 0))\n\
       \  (if (= i 40) acc\n\
       \      (loop (+ i 1) (+ acc (%call/1cc (lambda (k) (k i)))))))");
  let sa = Scheme.stats a and sb = Scheme.stats b in
  Alcotest.(check bool) "a ran" true (sa.Stats.instrs > 0);
  Alcotest.(check int) "a captured" 40 sa.Stats.captures_oneshot;
  Alcotest.(check int) "b instrs untouched" 0 sb.Stats.instrs;
  Alcotest.(check int) "b cache untouched" 0 sb.Stats.cache_hits;
  (* %stat reads the evaluating session's own live counters. *)
  let a_multi = eval a "(begin (%call/cc (lambda (k) 1)) (%stat 'captures-multi))" in
  Alcotest.(check string) "a %stat" "1" a_multi;
  Alcotest.(check string) "b %stat" "0" (eval b "(%stat 'captures-multi)")

(* The oracle backend allocates a live Stats.t by default and shares it
   with the session (satellite of the engine unification: all three
   backends report through the same object they count into). *)
let oracle_live_stats () =
  let o = Scheme.create ~backend:Scheme.Oracle () in
  Stats.reset (Scheme.stats o);
  ignore (Scheme.eval o "(%call/cc (lambda (k) (k 1)))");
  let st = Scheme.stats o in
  Alcotest.(check bool) "oracle ticks instrs" true (st.Stats.instrs > 0);
  Alcotest.(check int) "oracle counts captures" 1 st.Stats.captures_multi;
  Alcotest.(check string) "oracle %stat live" "1"
    (eval o "(%stat 'captures-multi)")

(* Both policy instantiations raise the one engine-level fuel exception,
   so a caller can catch either VM's exhaustion through either alias. *)
let fuel_exception_unified () =
  let h = Scheme.create ~backend:Scheme.Heap () in
  (match Scheme.eval ~fuel:100 h "(let loop () (loop))" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Vm.Vm_fuel_exhausted -> ());
  let s = Scheme.create () in
  match Scheme.eval ~fuel:100 s "(let loop () (loop))" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Heapvm.Vm_fuel_exhausted -> ()

(* The three backends agree on capture-heavy programs when run through
   the unified engine (spot differential; test_diff.ml fuzzes this). *)
let backends_agree () =
  let progs =
    [
      "(%call/1cc (lambda (k) (+ 1 (k 41))))";
      "(+ (%call/cc (lambda (k) (k 2))) 40)";
      "(let ((out '()))\n\
      \  (dynamic-wind\n\
      \    (lambda () (set! out (cons 'in out)))\n\
      \    (lambda () (%call/1cc (lambda (k) (k 1))))\n\
      \    (lambda () (set! out (cons 'out out))))\n\
      \  out)";
    ]
  in
  List.iter
    (fun src ->
      let s = Scheme.create () in
      let h = Scheme.create ~backend:Scheme.Heap () in
      let o = Scheme.create ~backend:Scheme.Oracle () in
      let vs = eval s src in
      Alcotest.(check string) ("heap: " ^ src) vs (eval h src);
      Alcotest.(check string) ("oracle: " ^ src) vs (eval o src))
    progs

(* Sessions created and run on other domains count exactly what a lone
   session on the calling domain counts: a domain adds no hidden work
   and shares no hidden state. *)
let domains_match_single_session () =
  let run () =
    let stats = Stats.create () in
    let t = Scheme.create ~stats () in
    Stats.reset stats;
    let v =
      Scheme.eval t
        "(let loop ((i 0) (acc 0))\n\
        \  (if (= i 60) acc\n\
        \      (loop (+ i 1) (+ acc (%call/1cc (lambda (k) (k i)))))))"
    in
    (Values.write_string v, Stats.to_rows stats)
  in
  let v, single = run () in
  List.iter
    (fun d ->
      let dv, rows = Domain.join d in
      Alcotest.(check string) "value" v dv;
      List.iter2
        (fun (name, one) (_, other) -> Alcotest.(check int) name one other)
        single rows)
    (List.init 2 (fun _ -> Domain.spawn run))

let suite =
  [
    Alcotest.test_case "interleaved stack+heap sessions" `Quick
      interleaved_backends;
    Alcotest.test_case "per-session stats and caches" `Quick independent_stats;
    Alcotest.test_case "oracle keeps live stats" `Quick oracle_live_stats;
    Alcotest.test_case "one fuel exception across policies" `Quick
      fuel_exception_unified;
    Alcotest.test_case "backends agree via unified engine" `Quick
      backends_agree;
    Alcotest.test_case "sessions on domains = single session" `Quick
      domains_match_single_session;
  ]
