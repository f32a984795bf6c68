(** Compile-once shared prelude image.

    The prelude sources are expanded, compiled, validated, verified and
    executed exactly once per configuration key — (scheme_winders,
    peephole, regalloc) — on a throwaway stack machine; the
    resulting global-slot delta is copied into each session's global
    table at create time.  Compiled code is session-independent
    (slot-indexed globals, process-shared primitives), so the codes and
    the closure values in the delta are shared read-only by every
    session and every par-pool shard. *)

type t

val get :
  scheme_winders:bool -> optimize:bool -> peephole:bool -> regalloc:bool -> t
(** The image for one configuration, building and caching it on first
    request (mutex-guarded: safe from any domain).

    [optimize] is not part of the key: it is kept only so the
    end-to-end benchmark under perfbench/, which passes
    [~optimize:false], builds unchanged.  The AST optimizer is gone, so
    [~optimize:true] raises [Invalid_argument]. *)

val install : t -> Globals.t -> unit
(** Copy the image's global-slot delta into [g] — the whole per-session
    cost of loading the prelude. *)

val delta_size : t -> int
(** Number of global slots the prelude defines (diagnostics/tests). *)

val builds : unit -> int
(** How many distinct images this process has built — the compile-once
    pin: it must not grow with session count. *)
