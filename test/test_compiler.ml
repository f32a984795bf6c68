(* Compiler unit tests: code-object shape, closure conversion, boxing
   decisions, direct-lambda inlining, and tail-call emission. *)

let case = Tutil.case

let compile_one src =
  let globals = Globals.create () in
  match Compiler.compile_string globals src with
  | [ code ] -> code
  | codes -> Alcotest.failf "expected one form, got %d" (List.length codes)

let instrs code = Array.to_list code.Rt.instrs

let count_instr pred code =
  let n = ref 0 in
  let rec walk (c : Rt.code) =
    Array.iter
      (fun i ->
        if pred i then incr n;
        match i with Rt.Make_closure (c', _) -> walk c' | _ -> ())
      c.Rt.instrs
  in
  walk code;
  !n

let has_instr pred code = count_instr pred code > 0

let suite =
  [
    case "toplevel code enters and returns" (fun () ->
        let code = compile_one "42" in
        (match instrs code with
        | Rt.Enter :: _ -> ()
        | _ -> Alcotest.fail "first instruction must be Enter");
        match List.rev (instrs code) with
        | Rt.Return :: _ -> ()
        | _ -> Alcotest.fail "last instruction must be Return");
    case "direct lambda application allocates no closure" (fun () ->
        let code = compile_one "(let ((x 1) (y 2)) (+ x y))" in
        Alcotest.(check int) "closures" 0
          (count_instr (function Rt.Make_closure _ -> true | _ -> false) code));
    case "escaping lambda allocates a closure" (fun () ->
        let code = compile_one "(lambda (x) x)" in
        Alcotest.(check int) "closures" 1
          (count_instr (function Rt.Make_closure _ -> true | _ -> false) code));
    case "tail position compiles to tail call" (fun () ->
        let code = compile_one "(define (f x) (f x))" in
        Alcotest.(check bool) "has tail call" true
          (has_instr (function Rt.Tail_call _ -> true | _ -> false) code);
        Alcotest.(check int) "no non-tail call" 0
          (count_instr (function Rt.Call _ -> true | _ -> false) code));
    case "non-tail call is not a tail call" (fun () ->
        let code = compile_one "(define (f x) (+ 1 (f x)))" in
        Alcotest.(check bool) "has call" true
          (has_instr (function Rt.Call _ -> true | _ -> false) code));
    case "unassigned variables are not boxed" (fun () ->
        let code = compile_one "(let ((x 1)) ((lambda () x)))" in
        Alcotest.(check int) "boxes" 0
          (count_instr (function Rt.Box_init _ -> true | _ -> false) code));
    case "assigned variables are boxed" (fun () ->
        let code = compile_one "(let ((x 1)) (set! x 2) x)" in
        Alcotest.(check bool) "boxed" true
          (has_instr (function Rt.Box_init _ -> true | _ -> false) code));
    case "assigned captured variable read through box" (fun () ->
        let code =
          compile_one "(let ((x 1)) (lambda () (set! x (+ x 1)) x))"
        in
        Alcotest.(check bool) "free box ref" true
          (has_instr (function Rt.Free_box_ref _ -> true | _ -> false) code));
    case "free variables resolved through closure" (fun () ->
        let code = compile_one "(lambda (x) (lambda () x))" in
        Alcotest.(check bool) "free ref" true
          (has_instr (function Rt.Free_ref _ -> true | _ -> false) code));
    case "frame_words covers arguments and temps" (fun () ->
        let code = compile_one "(+ 1 2 3 4 5 6 7 8)" in
        (* fn slot + 8 args + ret + slack *)
        Alcotest.(check bool) "frame wide enough"
          true
          (code.Rt.frame_words >= 11));
    case "variadic lambda arity" (fun () ->
        let code = compile_one "(lambda (a b . r) r)" in
        match instrs code with
        | [ Rt.Enter; Rt.Make_closure (c, _); Rt.Return ] ->
            Alcotest.(check string)
              "arity" "2+"
              (Bytecode.arity_to_string c.Rt.arity)
        | _ -> Alcotest.fail "unexpected toplevel shape");
    case "disassembler names globals" (fun () ->
        let code = compile_one "(car '(1))" in
        let text = Bytecode.disassemble code in
        Alcotest.(check bool) "mentions car" true
          (Tutil.contains ~sub:"car" text));
    case "disassemble_deep includes nested code" (fun () ->
        let code = compile_one "(lambda (x) (lambda (y) (+ x y)))" in
        let text = Bytecode.disassemble_deep code in
        (* The inner lambda reads its free [x]; after peephole fusion the
           read appears as free-push rather than free-ref. *)
        Alcotest.(check bool) "two lambdas" true
          (Tutil.contains ~sub:"free-ref" text
          || Tutil.contains ~sub:"free-push" text));
    case "branch targets in range" (fun () ->
        let code = compile_one "(if (if 1 2 3) (if 4 5 6) (if 7 8 9))" in
        Array.iter
          (function
            | Rt.Branch pc | Rt.Branch_false pc ->
                if pc < 0 || pc > Array.length code.Rt.instrs then
                  Alcotest.failf "branch target %d out of range" pc
            | _ -> ())
          code.Rt.instrs);
    case "compile error on unbound is deferred to runtime" (fun () ->
        (* Unbound globals are a runtime error, not a compile error. *)
        let _ = compile_one "(this-is-unbound)" in
        ());
    (* Deep let nesting reuses slots: frame stays small. *)
    case "sequential lets release slots" (fun () ->
        let seq =
          String.concat " "
            (List.init 30 (fun i ->
                 Printf.sprintf "(let ((x%d %d)) x%d)" i i i))
        in
        (* wrapped in a lambda body: top-level (begin ...) splices *)
        let code = compile_one (Printf.sprintf "((lambda () %s))" seq) in
        Alcotest.(check bool) "frame stays small" true
          (code.Rt.frame_words < 16));
  ]

(* Calls whose operands are all constants are compiled like any other
   call: they reach the primitive's binding at run time, so a [set!]
   of the primitive changes their result on every backend. *)
let constant_call_suite =
  Tutil.check_all "constant call sees a set! primitive" "(set! + -) (+ 5 3)"
    "2"

let suite = suite @ constant_call_suite
