(* No input crashes the host: primitives fed boundary arguments either
   return or raise [Rt.Scheme_error], which every driver renders as a
   [runtime] diagnostic.  Any other OCaml exception escaping a primitive
   (Out_of_memory, Invalid_argument, Division_by_zero, ...) would kill
   the schemer process with "internal error, uncaught exception".

   Also here: the allocation-size and fixnum-overflow restrictions that
   turn such host failures into diagnostics, checked on every backend
   and, for the allocation case, end to end through the CLI.  More
   CLI cases pin usage behaviour: [--jobs] without a pool, and
   [--disassemble] and a rebound primitive across -e chunks. *)

open Tutil

(* Boundary arguments, written as Scheme literals. *)
let boundary_args =
  [
    "0";
    "-1";
    string_of_int max_int;
    string_of_int min_int;
    "100000000000";
    "\"\"";
    "'()";
    "#f";
    "#\\a";
    "'(1 . 2)";
  ]

(* The arities a primitive accepts, capped: a variadic primitive is
   called at its minimum and the two arities above it. *)
let arities = function
  | Rt.Exactly n -> [ n ]
  | Rt.At_least n -> [ n; n + 1; n + 2 ]

(* Argument vectors of length [k]: every combination of boundary values
   up to three arguments; beyond that, each value repeated and each
   rotation of the value list, which still puts every value at every
   position. *)
let arg_vectors k =
  let rec product k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.map (fun v -> v :: rest) boundary_args)
        (product (k - 1))
  in
  if k <= 3 then product k
  else
    let vals = Array.of_list boundary_args in
    let n = Array.length vals in
    List.init n (fun i -> List.init k (fun _ -> vals.(i)))
    @ List.init n (fun i -> List.init k (fun j -> vals.((i + j) mod n)))

let sweep_prim (name, (p : Rt.prim)) =
  case (Printf.sprintf "boundary arguments: %s" name) (fun () ->
      let s = Scheme.create () in
      List.iter
        (fun k ->
          List.iter
            (fun args ->
              let src = Printf.sprintf "(%s %s)" name (String.concat " " args) in
              match Scheme.eval ~fuel:1_000_000 s src with
              | _ | (exception Rt.Scheme_error _) -> ()
              | exception e ->
                  Alcotest.failf "%s raised %s" src (Printexc.to_string e))
            (arg_vectors k))
        (arities p.Rt.parity))

(* Every primitive of the table is swept: none of them exits or blocks
   the process. *)
let sweep_cases = List.map sweep_prim Prims.the_prims

let backends =
  [
    ("stack", fun src -> eval_stack src);
    ("heap", fun src -> eval_heap src);
    ("oracle", fun src -> eval_oracle src);
  ]

(* [src] must fail with exactly the runtime message [msg] on every
   backend. *)
let check_runtime_error name src msg =
  List.map
    (fun (bname, eval) ->
      case (Printf.sprintf "%s [%s]" name bname) (fun () ->
          match eval src with
          | v -> Alcotest.failf "%s: expected an error, got %s" src v
          | exception e -> (
              match Diag.of_exn e with
              | Some d ->
                  Alcotest.(check string) src
                    ("error: [runtime] " ^ msg) (Diag.to_string d)
              | None ->
                  Alcotest.failf "%s raised %s" src (Printexc.to_string e))))
    backends

let check_value name src expected =
  List.map
    (fun (bname, eval) ->
      case (Printf.sprintf "%s [%s]" name bname) (fun () ->
          Alcotest.(check string) src expected (eval src)))
    backends

let alloc_cases =
  check_runtime_error "make-vector: huge size"
    "(make-vector 100000000000 0)" "make-vector: size too large 100000000000"
  @ check_runtime_error "make-string: huge size"
      "(make-string 100000000000 #\\a)"
      "make-string: size too large 100000000000"
  @ check_runtime_error "make-vector: size beyond the array limit"
      (Printf.sprintf "(make-vector %d)" max_int)
      (Printf.sprintf "make-vector: size too large %d" max_int)

let expt_cases =
  check_value "expt: 2^61 is exact" "(expt 2 61)" "2305843009213693952"
  @ check_value "expt: (-2)^61 is exact" "(expt -2 61)"
      "-2305843009213693952"
  @ check_value "expt: 3^39 is exact" "(expt 3 39)" "4052555153018976267"
  @ check_value "expt: huge exponent of 1 and 0"
      "(list (expt 1 1000000) (expt 0 1000000))" "(1 0)"
  @ check_runtime_error "expt: 2^62 overflows" "(expt 2 62)"
      "expt: fixnum overflow 2 62"
  @ check_runtime_error "expt: 2^100 overflows" "(expt 2 100)"
      "expt: fixnum overflow 2 100"
  @ check_runtime_error "/: min_int by -1 overflows"
      (Printf.sprintf "(/ %d -1)" min_int)
      (Printf.sprintf "/: fixnum overflow %d -1" min_int)

(* inexact->exact converts only the flonums inside the fixnum range
   [-2^62, 2^62); the rest are an overflow, never a wrapped fixnum. *)
let inexact_cases =
  check_value "inexact->exact: -2^62 is min_int"
      "(inexact->exact -4611686018427387904.)" (string_of_int min_int)
  @ check_value "inexact->exact: largest flonum below 2^62"
      "(inexact->exact 4611686018427387392.)" "4611686018427387392"
  @ check_runtime_error "inexact->exact: 2^62 overflows"
      "(inexact->exact 4611686018427387904.)"
      "inexact->exact: fixnum overflow 4.61168601843e+18"
  @ check_runtime_error "inexact->exact: 1e30 overflows"
      "(inexact->exact 1e30)" "inexact->exact: fixnum overflow 1e+30"
  @ check_runtime_error "inexact->exact: -1e19 overflows"
      "(inexact->exact -1e19)" "inexact->exact: fixnum overflow -1e+19"

(* Fixnum overflow against an exact oracle.  The oracle is independent
   of the code under test: signed decimal digit lists (least significant
   digit first), exact for any operands.  A fixnum operation must return
   the exact result when it fits in a fixnum, and fail with
   "<op>: fixnum overflow" naming its arguments when it does not. *)
module Exact = struct
  type t = bool * int list (* negative?, magnitude digits, no leading zeros *)

  let trim m =
    let rec drop = function 0 :: r -> drop r | r -> r in
    List.rev (drop (List.rev m))

  let of_string s : t =
    let neg = s.[0] = '-' in
    let digits = String.sub s (Bool.to_int neg) (String.length s - Bool.to_int neg) in
    (neg, trim (List.rev (List.init (String.length digits) (fun i -> Char.code digits.[i] - 48))))

  let of_int n = of_string (string_of_int n)

  let to_string ((neg, m) : t) =
    if m = [] then "0"
    else
      (if neg then "-" else "")
      ^ String.concat "" (List.rev_map string_of_int m)

  let cmp_mag a b = compare (List.length a, List.rev a) (List.length b, List.rev b)

  let rec add_mag a b carry =
    match (a, b) with
    | [], [] -> if carry = 0 then [] else [ carry ]
    | x :: a, [] | [], x :: a ->
        let s = x + carry in
        (s mod 10) :: add_mag a [] (s / 10)
    | x :: a, y :: b ->
        let s = x + y + carry in
        (s mod 10) :: add_mag a b (s / 10)

  (* [a - b] for [a >= b]. *)
  let rec sub_mag a b borrow =
    match (a, b) with
    | [], _ -> []
    | x :: a, b ->
        let y, b = match b with [] -> (0, []) | y :: b -> (y, b) in
        let d = x - y - borrow in
        if d < 0 then (d + 10) :: sub_mag a b 1 else d :: sub_mag a b 0

  let neg ((n, m) : t) : t = (not n, m)

  let add ((na, a) : t) ((nb, b) : t) : t =
    if na = nb then (na, add_mag a b 0)
    else if cmp_mag a b >= 0 then (na, trim (sub_mag a b 0))
    else (nb, trim (sub_mag b a 0))

  let mul ((na, a) : t) ((nb, b) : t) : t =
    let scale x =
      let rec go b carry =
        match b with
        | [] -> if carry = 0 then [] else [ carry ]
        | y :: b ->
            let p = (x * y) + carry in
            (p mod 10) :: go b (p / 10)
      in
      go b 0
    in
    let _, prod =
      List.fold_left
        (fun (shift, acc) x -> (0 :: shift, add_mag acc (shift @ scale x) 0))
        ([], []) a
    in
    (na <> nb, trim prod)
end

(* Near every edge of the fixnum range and of the small-product shortcut
   (2^30), plus the sweep's integer boundary values. *)
let oracle_ints =
  [ 0; 1; -1; 2; -2; 1023; 1024; -1025; 1 lsl 30; -(1 lsl 30); 3037000499;
    3037000500; -3037000500; 100000000000; 1 lsl 61; -(1 lsl 61);
    max_int; max_int - 1; min_int; min_int + 1 ]

(* (form, arguments, exact result or [None] when a fixnum cannot hold it) *)
let oracle_rows =
  let fits r = int_of_string_opt (Exact.to_string r) in
  let e = Exact.of_int in
  let binary ?(ys = oracle_ints) op exact extra =
    List.concat_map
      (fun x ->
        List.map (fun y -> (op, [ x; y ] @ extra, fits (exact (e x) (e y)))) ys)
      oracle_ints
  in
  let unary op exact =
    List.map (fun x -> (op, [ x ], fits (exact (e x)))) oracle_ints
  in
  let sub a b = Exact.add a (Exact.neg b) in
  [
    ("+ (two fixnums)", binary "+" Exact.add []);
    ("- (two fixnums)", binary "-" sub []);
    ("* (two fixnums)", binary "*" Exact.mul []);
    ("+ (generic fold)", binary "+" Exact.add [ 0 ]);
    ("- (generic fold)", binary "-" sub [ 0 ]);
    ("* (generic fold)", binary "*" Exact.mul [ 1 ]);
    (* Truncating division by [y] with [|y| >= 2] shrinks the magnitude,
       so only [y = -1] (negation) and [y = 1] need the exact oracle. *)
    ( "quotient",
      binary
        ~ys:(List.filter (fun y -> y <> 0) oracle_ints)
        "quotient"
        (fun x y ->
          match Exact.to_string y with
          | "1" -> x
          | "-1" -> Exact.neg x
          | ys ->
              Exact.of_int (int_of_string (Exact.to_string x) / int_of_string ys))
        [] );
    ("- (negation)", unary "-" Exact.neg);
    ("abs", unary "abs" (fun (_, m) -> (false, m)));
    ("1+", unary "1+" (fun x -> Exact.add x (e 1)));
    ("1-", unary "1-" (fun x -> Exact.add x (e (-1))));
  ]

let overflow_oracle_cases =
  List.concat_map
    (fun (bname, eval) ->
      List.map
        (fun (label, rows) ->
          case (Printf.sprintf "fixnum oracle: %s [%s]" label bname)
            (fun () ->
              List.iter
                (fun (op, args, exact) ->
                  let args = List.map string_of_int args in
                  let src =
                    Printf.sprintf "(%s %s)" op (String.concat " " args)
                  in
                  match eval src with
                  | v -> (
                      match exact with
                      | Some n -> Alcotest.(check string) src (string_of_int n) v
                      | None ->
                          Alcotest.failf "%s: expected overflow, got %s" src v)
                  | exception e -> (
                      match (exact, Diag.of_exn e) with
                      | None, Some d ->
                          Alcotest.(check string) src
                            (Printf.sprintf
                               "error: [runtime] %s: fixnum overflow %s" op
                               (String.concat " " args))
                            (Diag.to_string d)
                      | _ ->
                          Alcotest.failf "%s raised %s" src
                            (Printexc.to_string e)))
                rows))
        oracle_rows)
    backends

(* The CLI prints the one diagnostic line on stderr and exits 1. *)
let schemer =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "schemer.exe"))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Run schemer with the (already quoted) [args]: exit code, stdout and
   stderr lines. *)
let run_schemer args =
  let out = Filename.temp_file "schemer" ".out" in
  let err = Filename.temp_file "schemer" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote schemer) args
         (Filename.quote out) (Filename.quote err))
  in
  let stdout_lines = read_lines out and stderr_lines = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_lines, stderr_lines)

let cli_cases =
  List.map
    (fun backend ->
      case (Printf.sprintf "CLI: make-vector huge size [%s]" backend)
        (fun () ->
          let code, stdout_lines, stderr_lines =
            run_schemer
              (Printf.sprintf "--backend %s -e %s" backend
                 (Filename.quote "(make-vector 100000000000 0)"))
          in
          Alcotest.(check int) "exit code" 1 code;
          Alcotest.(check (list string)) "stdout" [] stdout_lines;
          Alcotest.(check (list string)) "stderr"
            [ "1:0: error: [runtime] make-vector: size too large 100000000000" ]
            stderr_lines))
    [ "stack"; "heap"; "oracle" ]

(* --jobs only sizes the par worker pool: without --par-chunk it is a
   usage error (exit 2, one line), never a silent no-op. *)
let jobs_without_pool_case =
  case "CLI: --jobs without --par-chunk is rejected" (fun () ->
      let code, stdout_lines, stderr_lines =
        run_schemer (Printf.sprintf "--jobs 2 -e %s" (Filename.quote "(+ 1 2)"))
      in
      Alcotest.(check int) "exit code" 2 code;
      Alcotest.(check (list string)) "stdout" [] stdout_lines;
      Alcotest.(check (list string)) "stderr"
        [
          "schemer: --jobs 2 needs --par-chunk (--jobs sets the number of \
           par workers)";
        ]
        stderr_lines)

(* --disassemble compiles each -e chunk against the macros of the
   earlier ones, as evaluation does: the [sq] use expands to a fused
   [*] call, not a call of an unbound global [sq]. *)
let disassemble_across_chunks_case =
  case "CLI: --disassemble sees macros of earlier chunks" (fun () ->
      let code, stdout_lines, _ =
        run_schemer
          (Printf.sprintf "--disassemble -e %s -e %s"
             (Filename.quote
                "(define-syntax sq (syntax-rules () ((_ x) (* x x))))")
             (Filename.quote "(sq 3)"))
      in
      let out = String.concat "\n" stdout_lines in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check bool) "fused * call" true
        (contains ~sub:"prim-tail-call *" out);
      Alcotest.(check bool) "no call of global sq" false
        (contains ~sub:"global-push sq" out))

(* A later -e chunk's all-constant call reaches a primitive that an
   earlier chunk rebound with set!. *)
let set_primitive_across_chunks_cases =
  List.map
    (fun backend ->
      case
        (Printf.sprintf "CLI: set! of a primitive reaches a later chunk [%s]"
           backend) (fun () ->
          let code, stdout_lines, stderr_lines =
            run_schemer
              (Printf.sprintf "--backend %s -e %s -e %s" backend
                 (Filename.quote "(set! + -)")
                 (Filename.quote "(+ 5 3)"))
          in
          Alcotest.(check int) "exit code" 0 code;
          Alcotest.(check (list string)) "stderr" [] stderr_lines;
          Alcotest.(check (option string)) "last stdout line" (Some "2")
            (List.nth_opt (List.rev stdout_lines) 0)))
    [ "stack"; "heap"; "oracle" ]

let suite =
  alloc_cases @ expt_cases @ inexact_cases @ overflow_oracle_cases @ cli_cases
  @ [ jobs_without_pool_case; disassemble_across_chunks_case ]
  @ set_primitive_across_chunks_cases @ sweep_cases
