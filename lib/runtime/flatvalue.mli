(** Cross-shard flat-value protocol.

    Worker shards of a par pool ({!Scheme.par_attach}) are fully
    independent sessions running on separate OCaml domains; the only
    process-global structure is the interned symbol table.  Values that
    travel between a master session and a worker shard must therefore be
    detached from the sending heap and rebuilt in the receiving one.
    [Flatvalue] is that wire format, deliberately restricted to {e flat}
    data:

    - immediates: the empty list, void, eof, booleans, fixnums, flonums,
      characters
    - strings (copied; mutation does not travel)
    - symbols (re-interned on arrival, preserving [eq?])
    - proper lists and vectors of flat data

    Everything carrying code or control — closures, primitives,
    continuations, boxes, hashtables, multiple-values packets — is
    non-flat and raises {!Not_flat}.  The restriction is deliberate: a
    one-shot continuation's stack record owns segment arrays of the
    capturing session, so migrating it means migrating live frames — the
    stepping stone this module leaves for later (DESIGN.md §15). *)

type t
(** An immutable, heap-detached representation of a flat value.  A [t]
    shares no mutable structure with any session heap, so it may be
    handed between domains freely. *)

exception Not_flat of Rt.value
(** Raised by {!serialize} on the first non-flat constructor reached.
    The payload is the offending (sub)value, still owned by the sending
    heap — describe it with {!describe} before it crosses any domain
    boundary. *)

exception Too_large
(** Raised by {!serialize} when the value exceeds the node budget
    (cyclic structures are caught by this bound rather than by a
    visited-set walk). *)

val serialize : Rt.value -> t
(** Detach a flat value from its session heap.  Raises {!Not_flat} or
    {!Too_large}. *)

val deserialize : t -> Rt.value
(** Rebuild a value in the calling session's heap: strings become fresh
    [bytes], symbols are re-interned through {!Rt.intern}, pairs and
    vectors are freshly allocated. *)

val describe : Rt.value -> string
(** One-line description of a non-flat value for error messages, e.g.
    ["#<procedure fib>"]. *)
