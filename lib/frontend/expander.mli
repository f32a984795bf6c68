(** Expansion of Scheme source datums into core forms.

    Handles the core forms [quote], [if], [set!], [lambda], [begin],
    [define], and the derived forms [let] (incl. named [let]), [let*],
    [letrec], [letrec*], [cond] (incl. [=>] and [else]), [case], [and],
    [or], [when], [unless], [do], [quasiquote]/[unquote]/
    [unquote-splicing], [let-syntax]/[letrec-syntax], and internal
    definitions at the head of bodies.

    [syntax-rules] macros expand hygienically by default: each use gets
    a fresh mark on its template-introduced identifiers (see {!Macro}),
    so macro-introduced binders neither capture use-site identifiers
    nor are captured by use-site binders; keywords, literals, global
    references, quoted data and top-level define names resolve by
    source name (marks stripped).  [~hygiene:false] reproduces the
    historical textual expansion.

    The expander's own derived forms remain textual: they expand into
    references to the standard procedures [cons], [append], [list],
    [list->vector], and [eqv?]; shadowing those names around a
    [quasiquote] or [case] form is unsupported (documented limitation,
    irrelevant to the reproduction).

    There is no ambient state: the macro environment and the hygiene
    switch are either passed per call or carried by the session that
    owns them, so expansions on different domains are independent. *)

exception Expand_error of string * Sexp.pos

val datum_to_value : Sexp.t -> Rt.value
(** Convert a quoted datum to its runtime value (hygiene marks
    stripped: quoted data is source text, not bindings). *)

val value_to_datum : Rt.value -> Sexp.t
(** Inverse of {!datum_to_value}, for [(eval datum)].
    @raise Rt.Scheme_error on values without a syntax (procedures...). *)

val expand : ?hygiene:bool -> ?menv:Macro.menv -> Sexp.t -> Ast.t
(** Expand one expression.  @raise Expand_error on malformed forms. *)

val expand_top : ?hygiene:bool -> ?menv:Macro.menv -> Sexp.t -> Ast.top
(** Expand one top-level form; [define] becomes {!Ast.Define}. *)

val expand_tops : ?hygiene:bool -> ?menv:Macro.menv -> Sexp.t -> Ast.top list
(** Like {!expand_top}, but splicing top-level [begin] and expanding
    [define-record-type] and [define-syntax]/macro uses against
    [menv] (macros defined by the form are added to it). *)

val expand_eval :
  ?hygiene:bool -> ?menv:Macro.menv -> Rt.value -> Ast.top list
(** {!expand_tops} over the datum of [(eval v)].
    @raise Rt.Scheme_error on malformed forms: the datum carries no
    source position, so the failure is the evaluating program's. *)

val expand_program :
  ?hygiene:bool -> ?menv:Macro.menv -> Sexp.t list -> Ast.top list
(** Expand a whole program.  [menv] carries [define-syntax] macros; when
    omitted, a fresh environment is used (macros do not persist). *)

val expand_string : ?hygiene:bool -> ?menv:Macro.menv -> string -> Ast.top list
(** Read and expand a whole program. *)
