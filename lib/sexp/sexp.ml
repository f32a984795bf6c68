type pos = { line : int; col : int }

type t =
  | Sym of string * pos
  | Int of int * pos
  | Float of float * pos
  | Str of string * pos
  | Bool of bool * pos
  | Char of char * pos
  | List of t list * pos
  | Dotted of t list * t * pos
  | Vec of t list * pos

exception Read_error of string * pos

let pos_of = function
  | Sym (_, p) | Int (_, p) | Float (_, p) | Str (_, p) | Bool (_, p)
  | Char (_, p) | List (_, p) | Dotted (_, _, p) | Vec (_, p) ->
      p

(* ------------------------------------------------------------------ *)
(* Reader state                                                        *)
(* ------------------------------------------------------------------ *)

type state = {
  src : string;
  mutable idx : int;
  mutable line : int;
  mutable col : int;
}

let make_state src = { src; idx = 0; line = 1; col = 0 }
let here st = { line = st.line; col = st.col }
let error st msg = raise (Read_error (msg, here st))
let at_eof st = st.idx >= String.length st.src
let peek st = if at_eof st then '\000' else st.src.[st.idx]

let peek2 st =
  if st.idx + 1 >= String.length st.src then '\000' else st.src.[st.idx + 1]

let advance st =
  if not (at_eof st) then begin
    (if st.src.[st.idx] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 0
     end
     else st.col <- st.col + 1);
    st.idx <- st.idx + 1
  end

let is_whitespace c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let is_delimiter c =
  is_whitespace c || c = '(' || c = ')' || c = '[' || c = ']' || c = '"'
  || c = ';' || c = '\000'

let rec skip_block_comment st depth =
  if at_eof st then error st "unterminated block comment"
  else if peek st = '|' && peek2 st = '#' then begin
    advance st;
    advance st;
    if depth > 1 then skip_block_comment st (depth - 1)
  end
  else if peek st = '#' && peek2 st = '|' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1)
  end
  else begin
    advance st;
    skip_block_comment st depth
  end

(* Skip whitespace and comments; returns [true] if a [#;] datum comment was
   seen, in which case the caller must read and discard the next datum. *)
let rec skip_atmosphere st =
  if at_eof st then `Eof
  else
    match peek st with
    | c when is_whitespace c ->
        advance st;
        skip_atmosphere st
    | ';' ->
        while (not (at_eof st)) && peek st <> '\n' do
          advance st
        done;
        skip_atmosphere st
    | '#' when peek2 st = '|' ->
        advance st;
        advance st;
        skip_block_comment st 1;
        skip_atmosphere st
    | '#' when peek2 st = ';' ->
        advance st;
        advance st;
        `Datum_comment
    | _ -> `Datum

let named_chars =
  [
    ("newline", '\n');
    ("space", ' ');
    ("tab", '\t');
    ("nul", '\000');
    ("return", '\r');
    ("linefeed", '\n');
    ("altmode", '\027');
    ("delete", '\127');
  ]

let read_string_literal st start =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if at_eof st then raise (Read_error ("unterminated string literal", start))
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (if at_eof st then
             raise (Read_error ("unterminated string escape", start))
           else
             let c = peek st in
             advance st;
             match c with
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | '\\' -> Buffer.add_char buf '\\'
             | '"' -> Buffer.add_char buf '"'
             | '0' -> Buffer.add_char buf '\000'
             | c -> error st (Printf.sprintf "unknown string escape \\%c" c));
          go ()
      | c ->
          advance st;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Str (Buffer.contents buf, start)

let read_token st start =
  let buf = Buffer.create 8 in
  while (not (at_eof st)) && not (is_delimiter (peek st)) do
    Buffer.add_char buf (peek st);
    advance st
  done;
  let s = Buffer.contents buf in
  let looks_numeric s =
    let c0 = s.[0] in
    (c0 >= '0' && c0 <= '9')
    || (String.length s > 1 && (c0 = '-' || c0 = '+' || c0 = '.')
       && s.[1] >= '0' && s.[1] <= '9')
  in
  if s = "" then error st "empty token"
  else if s = "+inf.0" then Float (Float.infinity, start)
  else if s = "-inf.0" then Float (Float.neg_infinity, start)
  else if s = "+nan.0" || s = "-nan.0" then Float (Float.nan, start)
  (* Every other token read as a number looks numeric (an integer, even
     an out-of-range one, has a digit after its optional sign), so the
     rest are symbols, without two conversions that would fail. *)
  else if not (looks_numeric s) then Sym (s, start)
  else
    match int_of_string_opt s with
    | Some n -> Int (n, start)
    | None ->
        let body =
          if s.[0] = '-' || s.[0] = '+' then
            String.sub s 1 (String.length s - 1)
          else s
        in
        if body <> "" && String.for_all (fun c -> c >= '0' && c <= '9') body
        then raise (Read_error ("fixnum out of range: " ^ s, start))
        else (
          match float_of_string_opt s with
          | Some f -> Float (f, start)
          | None -> Sym (s, start))

let read_char_literal st start =
  (* Cursor sits after "#\\". *)
  if at_eof st then raise (Read_error ("unterminated character literal", start));
  let first = peek st in
  advance st;
  let buf = Buffer.create 8 in
  Buffer.add_char buf first;
  (* Multi-character names are alphabetic; a lone char may be any char. *)
  if (first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') then
    while (not (at_eof st)) && not (is_delimiter (peek st)) do
      Buffer.add_char buf (peek st);
      advance st
    done;
  let s = Buffer.contents buf in
  if String.length s = 1 then Char (s.[0], start)
  else
    match List.assoc_opt (String.lowercase_ascii s) named_chars with
    | Some c -> Char (c, start)
    | None -> raise (Read_error ("unknown character name #\\" ^ s, start))

let quote_wrapper name start datum =
  List ([ Sym (name, start); datum ], start)

let rec read_datum st =
  match skip_atmosphere st with
  | `Eof -> error st "unexpected end of input"
  | `Datum_comment ->
      ignore (read_datum st);
      read_datum st
  | `Datum -> (
      let start = here st in
      match peek st with
      | '(' | '[' ->
          let close = if peek st = '(' then ')' else ']' in
          advance st;
          read_list st start close []
      | ')' | ']' -> error st "unexpected closing parenthesis"
      | '\'' ->
          advance st;
          quote_wrapper "quote" start (read_datum st)
      | '`' ->
          advance st;
          quote_wrapper "quasiquote" start (read_datum st)
      | ',' ->
          advance st;
          if peek st = '@' then begin
            advance st;
            quote_wrapper "unquote-splicing" start (read_datum st)
          end
          else quote_wrapper "unquote" start (read_datum st)
      | '"' -> read_string_literal st start
      | '#' -> (
          match peek2 st with
          | 't' | 'f' ->
              advance st;
              let b = peek st = 't' in
              advance st;
              if not (at_eof st || is_delimiter (peek st)) then
                error st "bad boolean literal";
              Bool (b, start)
          | '\\' ->
              advance st;
              advance st;
              read_char_literal st start
          | '(' ->
              advance st;
              advance st;
              let elems = read_vector st start [] in
              Vec (elems, start)
          | c -> error st (Printf.sprintf "unsupported # syntax: #%c" c))
      | _ -> read_token st start)

and read_list st start close acc =
  match skip_atmosphere st with
  | `Eof -> raise (Read_error ("unterminated list", start))
  | `Datum_comment ->
      ignore (read_datum st);
      read_list st start close acc
  | `Datum ->
      if peek st = close then begin
        advance st;
        List (List.rev acc, start)
      end
      else if (peek st = ')' || peek st = ']') && peek st <> close then
        error st "mismatched bracket"
      else if peek st = '.' && is_delimiter (peek2 st) then begin
        advance st;
        let tail = read_datum st in
        (match skip_atmosphere st with
        | `Datum when peek st = close -> advance st
        | _ -> raise (Read_error ("malformed dotted list", start)));
        if acc = [] then raise (Read_error ("dotted list with no head", start));
        match tail with
        | List (elems, _) -> List (List.rev_append acc elems, start)
        | Dotted (elems, final, _) ->
            Dotted (List.rev_append acc elems, final, start)
        | _ -> Dotted (List.rev acc, tail, start)
      end
      else read_list st start close (read_datum st :: acc)

and read_vector st start acc =
  match skip_atmosphere st with
  | `Eof -> raise (Read_error ("unterminated vector literal", start))
  | `Datum_comment ->
      ignore (read_datum st);
      read_vector st start acc
  | `Datum ->
      if peek st = ')' then begin
        advance st;
        List.rev acc
      end
      else read_vector st start (read_datum st :: acc)

let read_all src =
  let st = make_state src in
  let rec go acc =
    match skip_atmosphere st with
    | `Eof -> List.rev acc
    | `Datum_comment ->
        ignore (read_datum st);
        go acc
    | `Datum -> go (read_datum st :: acc)
  in
  go []

let read_one src =
  match read_all src with
  | [ d ] -> d
  | [] -> raise (Read_error ("no datum in input", { line = 1; col = 0 }))
  | _ :: d :: _ ->
      raise (Read_error ("more than one datum in input", pos_of d))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let char_name c =
  match c with
  | '\n' -> "#\\newline"
  | ' ' -> "#\\space"
  | '\t' -> "#\\tab"
  | '\000' -> "#\\nul"
  | '\r' -> "#\\return"
  | c -> Printf.sprintf "#\\%c" c

let float_external f =
  if f <> f then "+nan.0"
  else if f = Float.infinity then "+inf.0"
  else if f = Float.neg_infinity then "-inf.0"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf d =
  match d with
  | Sym (s, _) -> Buffer.add_string buf s
  | Int (n, _) -> Buffer.add_string buf (string_of_int n)
  | Float (f, _) -> Buffer.add_string buf (float_external f)
  | Str (s, _) -> Buffer.add_string buf (escape_string s)
  | Bool (b, _) -> Buffer.add_string buf (if b then "#t" else "#f")
  | Char (c, _) -> Buffer.add_string buf (char_name c)
  | List (elems, _) ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_char buf ')'
  | Dotted (elems, final, _) ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_string buf " . ";
      write buf final;
      Buffer.add_char buf ')'
  | Vec (elems, _) ->
      Buffer.add_string buf "#(";
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_char buf ')'

let to_string d =
  let buf = Buffer.create 64 in
  write buf d;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Sym (x, _), Sym (y, _) -> String.equal x y
  | Int (x, _), Int (y, _) -> x = y
  | Float (x, _), Float (y, _) -> x = y
  | Str (x, _), Str (y, _) -> String.equal x y
  | Bool (x, _), Bool (y, _) -> x = y
  | Char (x, _), Char (y, _) -> x = y
  | List (xs, _), List (ys, _) -> equal_lists xs ys
  | Dotted (xs, x, _), Dotted (ys, y, _) -> equal_lists xs ys && equal x y
  | Vec (xs, _), Vec (ys, _) -> equal_lists xs ys
  | _ -> false

and equal_lists xs ys =
  List.length xs = List.length ys && List.for_all2 equal xs ys

let pp fmt d = Format.pp_print_string fmt (to_string d)
