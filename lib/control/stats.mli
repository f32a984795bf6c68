(** Instrumentation counters for the control substrate and the VMs.

    Counters are the reproduction's stand-in for the paper's hardware
    measurements: copy volume, allocation volume, and dispatch counts scale
    the same way the paper's instruction counts and memory numbers do. *)

type t = {
  mutable enabled : bool;
      (** Toggle for the hot-path counters ([instrs], [calls], [frames],
          [prim_calls], ...): the VM dispatch loops skip those increments
          when false, so production dispatch does not pay for
          observability.  Rare-event counters (overflows, captures,
          splits, ...) are always maintained.  Default: true; [reset]
          leaves it alone. *)
  mutable instrs : int;  (** VM instructions dispatched *)
  mutable calls : int;  (** closure calls (incl. tail calls) *)
  mutable frames : int;  (** non-tail frames pushed *)
  mutable prim_calls : int;
  mutable prim_fast : int;
      (** fused [Prim_call*] sites taking the inline-cache fast path *)
  mutable prim_deopts : int;
      (** fused [Prim_call*] sites whose guard failed (primitive
          redefined): the generic call path was taken *)
  mutable captures_multi : int;
  mutable captures_oneshot : int;
  mutable invokes_multi : int;
  mutable invokes_oneshot : int;
  mutable unseals : int;
      (** multi-shot invocations served by the in-place unseal fast path
          (adjacent sealed record reopened; only its top frame copied) *)
  mutable underflows : int;
  mutable overflows : int;
  mutable splits : int;
  mutable promotions : int;  (** one-shot records promoted (eager or flagged) *)
  mutable words_copied : int;  (** stack words copied (invoke + overflow) *)
  mutable seg_allocs : int;  (** fresh segments allocated *)
  mutable seg_alloc_words : int;
  mutable cache_hits : int;
      (** segment-cache pops that satisfied an allocation (any class) *)
  mutable cache_releases : int;
  mutable cache_class_hits : int;
      (** pops satisfied by the request's exact size class (O(1) path) *)
  mutable cache_class_misses : int;
      (** requests whose exact size class was empty (fresh allocation or
          higher-class scan) *)
  mutable cache_words_hw : int;
      (** high-water mark of words parked in the cache across all classes *)
  mutable closures_made : int;
  mutable boxes_made : int;
  mutable heap_frames : int;  (** heap VM: frames allocated *)
  mutable heap_frame_words : int;
  mutable cow_copies : int;  (** heap VM: copy-on-write frame copies *)
  mutable par_tasks : int;
      (** data-parallel layer: chunked tasks executed by this session
          (gated under [enabled], like the other hot-path counters) *)
  mutable par_steals : int;
      (** data-parallel layer: tasks obtained by stealing from another
          shard's deque rather than popping the shard's own *)
  mutable par_switches : int;
      (** data-parallel layer: one-shot continuation task switches
          performed by the in-chunk fiber scheduler *)
}

val create : ?enabled:bool -> unit -> t
val reset : t -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Restore every field of [dst] (including [enabled]) from [src].
    With {!copy} this gives snapshot/restore, which the data-parallel
    worker uses to keep its source-log replay out of the measured
    per-shard counters. *)

val get : t -> string -> int
(** Look a counter up by name; raises [Not_found] for unknown names. *)

val names : string list
val to_rows : t -> (string * int) list
val pp : Format.formatter -> t -> unit
