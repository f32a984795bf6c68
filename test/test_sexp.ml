(* Reader/writer unit tests and the read-write round-trip property. *)

let case = Tutil.case

let read_to_string src = Sexp.to_string (Sexp.read_one src)

let check_read name src expected =
  case name (fun () ->
      Alcotest.(check string) src expected (read_to_string src))

let check_read_error name src =
  case name (fun () ->
      match Sexp.read_all src with
      | _ -> Alcotest.failf "expected read error for %S" src
      | exception Sexp.Read_error _ -> ())

let unit_tests =
  [
    check_read "symbol" "foo" "foo";
    check_read "weird symbol" "call/cc" "call/cc";
    check_read "arith symbols" "1+" "1+";
    check_read "fixnum" "42" "42";
    check_read "negative fixnum" "-17" "-17";
    check_read "explicit positive" "+17" "17";
    check_read "boolean true" "#t" "#t";
    check_read "boolean false" "#f" "#f";
    check_read "character" "#\\a" "#\\a";
    check_read "newline char" "#\\newline" "#\\newline";
    check_read "space char" "#\\space" "#\\space";
    check_read "string" {|"hello"|} {|"hello"|};
    check_read "string escapes" {|"a\"b\\c\nd"|} {|"a\"b\\c\nd"|};
    check_read "empty list" "()" "()";
    check_read "proper list" "(1 2 3)" "(1 2 3)";
    check_read "brackets" "[1 2]" "(1 2)";
    check_read "nested" "((a) (b (c)))" "((a) (b (c)))";
    check_read "dotted pair" "(1 . 2)" "(1 . 2)";
    check_read "dotted list" "(1 2 . 3)" "(1 2 . 3)";
    check_read "dot then list collapses" "(1 . (2 3))" "(1 2 3)";
    check_read "vector" "#(1 2 3)" "#(1 2 3)";
    check_read "quote sugar" "'x" "(quote x)";
    check_read "quasiquote sugar" "`x" "(quasiquote x)";
    check_read "unquote sugar" ",x" "(unquote x)";
    check_read "unquote-splicing sugar" ",@x" "(unquote-splicing x)";
    check_read "nested quotes" "''x" "(quote (quote x))";
    check_read "line comment" "; hi\n42" "42";
    check_read "block comment" "#| hi |# 42" "42";
    check_read "nested block comment" "#| a #| b |# c |# 42" "42";
    check_read "datum comment" "#;(1 2) 42" "42";
    check_read "datum comment in list" "(1 #;2 3)" "(1 3)";
    case "read_all several" (fun () ->
        Alcotest.(check int) "count" 3 (List.length (Sexp.read_all "1 2 3")));
    case "read_all empty input" (fun () ->
        Alcotest.(check int) "count" 0 (List.length (Sexp.read_all " ; c\n")));
    case "positions tracked" (fun () ->
        let d = Sexp.read_one "\n  foo" in
        let p = Sexp.pos_of d in
        Alcotest.(check int) "line" 2 p.Sexp.line;
        Alcotest.(check int) "col" 2 p.Sexp.col);
    check_read_error "unterminated list" "(1 2";
    check_read_error "unterminated string" {|"abc|};
    check_read_error "unterminated block comment" "#| xx";
    check_read_error "stray close paren" ")";
    check_read_error "mismatched bracket" "(1 2]";
    check_read_error "bad char name" "#\\bogus";
    check_read_error "bad hash syntax" "#q";
    check_read_error "dotted with no head" "( . 2)";
    case "read_one on two datums" (fun () ->
        match Sexp.read_one "1 2" with
        | _ -> Alcotest.fail "expected read error"
        | exception Sexp.Read_error _ -> ());
    check_read_error "fixnum overflow" "99999999999999999999999999";
  ]

(* How each token classifies: symbol, fixnum, flonum (hex float, exact)
   or read error.  Pins the reader's number syntax so a shortcut that
   skips the numeric conversions cannot change what any token means. *)
let classify src =
  match Sexp.read_one src with
  | Sexp.Sym (s, _) -> "sym " ^ s
  | Sexp.Int (n, _) -> "int " ^ string_of_int n
  | Sexp.Float (f, _) -> Printf.sprintf "float %h" f
  | d -> "other " ^ Sexp.to_string d
  | exception Sexp.Read_error (msg, _) -> "error " ^ msg

let token_cases =
  List.map
    (fun (src, expected) ->
      case (Printf.sprintf "token %s" src) (fun () ->
          Alcotest.(check string) src expected (classify src)))
    [
      ("+", "sym +");
      ("-", "sym -");
      ("...", "sym ...");
      ("->x", "sym ->x");
      ("1+", "sym 1+");
      ("-1+", "sym -1+");
      (".5", "float 0x1p-1");
      ("+.5", "sym +.5");
      ("-.5", "sym -.5");
      ("1.", "float 0x1p+0");
      ("+5", "int 5");
      ("0x10", "int 16");
      ("-0x10", "int -16");
      ("0b101", "int 5");
      ("1_000", "int 1000");
      ("1e3", "float 0x1.f4p+9");
      ("+inf.0", "float infinity");
      ("-inf.0", "float -infinity");
      ("-nan.0", "float nan");
      ("nan", "sym nan");
      ("inf", "sym inf");
      ("-4611686018427387904", "int -4611686018427387904");
      ("4611686018427387904", "error fixnum out of range: 4611686018427387904");
      ( "-4611686018427387905",
        "error fixnum out of range: -4611686018427387905" );
    ]

(* Round-trip property: write then read gives a structurally equal datum. *)
let gen_datum =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun n -> Sexp.Int (n, { Sexp.line = 0; col = 0 })) small_signed_int;
        map
          (fun s -> Sexp.Sym ((if s = "" then "x" else s), { Sexp.line = 0; col = 0 }))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
        map (fun b -> Sexp.Bool (b, { Sexp.line = 0; col = 0 })) bool;
        map (fun c -> Sexp.Char (c, { Sexp.line = 0; col = 0 })) (char_range 'a' 'z');
        map
          (fun s -> Sexp.Str (s, { Sexp.line = 0; col = 0 }))
          (string_size ~gen:(char_range ' ' '~') (int_range 0 10));
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          ( 2,
            map
              (fun l -> Sexp.List (l, { Sexp.line = 0; col = 0 }))
              (list_size (int_range 0 4) (go (depth - 1))) );
          ( 1,
            map
              (fun l -> Sexp.Vec (l, { Sexp.line = 0; col = 0 }))
              (list_size (int_range 0 3) (go (depth - 1))) );
          ( 1,
            map2
              (fun l last ->
                match l with
                | [] -> last
                | _ -> Sexp.Dotted (l, last, { Sexp.line = 0; col = 0 }))
              (list_size (int_range 1 3) (go (depth - 1)))
              atom );
        ]
  in
  go 4

let arb_datum = QCheck.make ~print:Sexp.to_string gen_datum

let roundtrip_prop =
  QCheck.Test.make ~name:"write/read round trip" ~count:500 arb_datum (fun d ->
      Sexp.equal d (Sexp.read_one (Sexp.to_string d)))

let prop_tests = [ QCheck_alcotest.to_alcotest roundtrip_prop ]
let suite = unit_tests @ token_cases @ prop_tests
