(* The one dispatch loop (template).
   ==================================

   This file is NOT a module of the engine library.  It is the textual
   template of the execution core — fuel/landing discipline, every
   instruction handler, every fused superinstruction, the prim-call fast
   paths — written against an abstract frame policy [Policy].  A dune
   rule in each backend library concatenates

       module Policy = <that backend's policy>

   with this file to produce the backend's core module ([Vm_core] over
   [Vm_policy], [Heap_core] over [Heap_policy]).  The result is
   include-style instantiation: the loop is compiled once per backend
   with the policy statically known, so the policy's constants fold and
   its operations inline — a functor would instead put a closure
   indirection on every hot-path policy call (this tree does not build
   with flambda, which could be trusted to specialize one).

   A new opcode is added HERE, once; both VMs pick it up on the next
   build.  The policy supplies only what genuinely depends on the
   control representation:

     fast                 whether same-frame-array call/tail/return
                          transfers may stay inside a landing (the
                          segmented stack's contiguous frames; heap
                          frames are linked, every transfer relaunches)
     frames_on_pure_call  whether a [Call] to a pure primitive counts a
                          frame (the heap VM counts the frame it would
                          have allocated; the stack VM pushes nothing)
     slots/frame_base/limit
                          the landing's cached view of the active frame
     set                  a slot write; returns the array to continue
                          the landing on (copy-on-write may replace it)
     set_fp/call/tail_call/do_return/enter/fire_timer/
     prim_deopt_call/prim_deopt_tail_call/pure_call_skips/
     inject_error_handler/init_run
                          the control transfers themselves

   The loop executes one *landing* at a time: a run of instructions
   between control transfers, all within one code object, one frame and
   one slot array.  For the duration of a landing the hot state lives in
   parameters (so the native compiler keeps it in registers):

     [instrs]  the current code object's instruction array
     [slots]   the active slot array (stack: the segment, indexed from
               [fp]; heap: the current frame's slots, [fp] = 0); a GC
               root, relocated like any local if a collection moves it
     [fp]      the frame base within [slots] (never written mid-landing)
     [limit]   first index past the usable extent of [slots] (stack: the
               segment limit, for the Enter/Return fast paths; heap:
               [max_int])
     [acc]     the accumulator
     [pc]      index of the instruction about to execute
     [steps]   instructions executed in this landing but not yet added
               to [stats.instrs] / subtracted from [vm.fuel]
     [budget]  instructions this landing may still execute before the
               fuel check must run ([max_int] when fuel is unlimited)

   [sync] writes the batched state back ([vm.pc], [vm.acc], instruction
   counter, fuel); it MUST run before any operation that can observe
   [vm.pc] or raise — control transfers, primitive application (prims
   raise Scheme_error), and every error branch.  After [sync] the [pc]
   argument is the address *after* the current instruction, matching the
   historical "pc already incremented" semantics that error-handler
   injection and the deopt return addresses rely on.

   Instruction fetch uses [Array.unsafe_get]: [Bytecode.make_code]
   validates that code cannot fall off the end and that branch targets
   are in range, and [relaunch] bounds-checks every landing's entry pc,
   so [pc] is always in range here. *)

open Rt
open Engine

(* Resolve a register-addressed operand (Optimize.fuse_operands): the
   accumulator, a frame slot, or an immediate.  Cannot raise. *)
let[@inline] load_op slots fp acc op =
  match op with
  | Op_acc -> acc
  | Op_local i -> slots.(fp + i)
  | Op_const v -> v

(* Resolve a global slot against this session's cell table.  Compiled
   code carries process-wide slot numbers (so code objects — notably the
   shared prelude image — are session-independent); the indirection is
   one bounds test and an unsafe load on the hit path.  Defined locally
   (not in [Engine]) so the native compiler inlines it: this tree does
   not build with flambda, which would be needed to trust a cross-module
   [@inline]. *)
let[@inline] gcell (vm : Policy.t) slot =
  let cells = vm.globals.Globals.cells in
  if slot < Array.length cells then Array.unsafe_get cells slot
  else Globals.get vm.globals slot

let[@inline] sync (vm : Policy.t) steps pc acc =
  vm.pc <- pc;
  vm.acc <- acc;
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.instrs <- stats.Stats.instrs + steps;
  if vm.fuel >= 0 then vm.fuel <- vm.fuel - steps

let rec exec (vm : Policy.t) instrs slots fp limit budget acc steps pc =
  if steps >= budget then begin
    sync vm steps pc acc;
    raise Vm_fuel_exhausted
  end;
  match Array.unsafe_get instrs pc with
  | Const v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Local_ref i ->
      exec vm instrs slots fp limit budget slots.(fp + i) (steps + 1) (pc + 1)
  | Local_set i ->
      let slots = Policy.set vm slots fp i acc in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Box_init i ->
      let slots = Policy.set vm slots fp i (Box (ref slots.(fp + i))) in
      let stats = vm.stats in
      if stats.Stats.enabled then
        stats.Stats.boxes_made <- stats.Stats.boxes_made + 1;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Box_ref i -> (
      match slots.(fp + i) with
      | Box r -> exec vm instrs slots fp limit budget !r (steps + 1) (pc + 1)
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: box-ref of non-box" [ v ])
  | Box_set i -> (
      match slots.(fp + i) with
      | Box r ->
          r := acc;
          exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: box-set of non-box" [ v ])
  | Free_ref i -> (
      match slots.(fp + 1) with
      | Closure c ->
          exec vm instrs slots fp limit budget c.frees.(i) (steps + 1) (pc + 1)
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: free-ref outside closure" [ v ])
  | Free_box_ref i -> (
      match slots.(fp + 1) with
      | Closure c -> (
          match c.frees.(i) with
          | Box r ->
              exec vm instrs slots fp limit budget !r (steps + 1) (pc + 1)
          | v ->
              sync vm (steps + 1) (pc + 1) acc;
              Values.err "vm: free-box-ref of non-box" [ v ])
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: free-box-ref outside closure" [ v ])
  | Free_box_set i -> (
      match slots.(fp + 1) with
      | Closure c -> (
          match c.frees.(i) with
          | Box r ->
              r := acc;
              exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
          | v ->
              sync vm (steps + 1) (pc + 1) acc;
              Values.err "vm: free-box-set of non-box" [ v ])
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: free-box-set outside closure" [ v ])
  | Global_ref s ->
      let g = gcell vm s in
      if g.gdefined then
        exec vm instrs slots fp limit budget g.gval (steps + 1) (pc + 1)
      else begin
        sync vm (steps + 1) (pc + 1) acc;
        Values.err ("unbound variable: " ^ Globals.slot_name s) []
      end
  | Global_set s ->
      let g = gcell vm s in
      if g.gdefined then begin
        g.gval <- acc;
        exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      end
      else begin
        sync vm (steps + 1) (pc + 1) acc;
        Values.err ("set! of unbound variable: " ^ Globals.slot_name s) []
      end
  | Global_define s ->
      let g = gcell vm s in
      g.gval <- acc;
      g.gdefined <- true;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Make_closure (code, caps) ->
      let ncaps = Array.length caps in
      let frees = if ncaps = 0 then [||] else Array.make ncaps Void in
      for i = 0 to ncaps - 1 do
        frees.(i) <-
          (match Array.unsafe_get caps i with
          | Cap_local j -> slots.(fp + j)
          | Cap_free j -> (
              match slots.(fp + 1) with
              | Closure c -> c.frees.(j)
              | v ->
                  sync vm (steps + 1) (pc + 1) acc;
                  Values.err "vm: capture outside closure" [ v ]))
      done;
      let stats = vm.stats in
      if stats.Stats.enabled then
        stats.Stats.closures_made <- stats.Stats.closures_made + 1;
      exec vm instrs slots fp limit budget
        (Closure { code; frees })
        (steps + 1) (pc + 1)
  | Branch t -> exec vm instrs slots fp limit budget acc (steps + 1) t
  | Branch_false t ->
      exec vm instrs slots fp limit budget acc (steps + 1)
        (match acc with Bool false -> t | _ -> pc + 1)
  | Call site -> (
      let nfp = fp + site.cs_disp in
      match slots.(nfp + 1) with
      | Closure c when Policy.fast ->
          (* Same-slot-array call: the callee's frame lives on the
             segment we already hold, so transfer control without
             leaving the loop.  The return address is the per-site
             constant interned by [Bytecode.backpatch]: no allocation on
             the call path.  [vm.pc] stays stale here — every
             observation point (error branches, slow-path transfers)
             syncs its own pc first. *)
          slots.(nfp) <- site.cs_ret;
          vm.code <- c.code;
          vm.nargs <- site.cs_nargs;
          Policy.set_fp vm nfp;
          let stats = vm.stats in
          if stats.Stats.enabled then begin
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
            stats.Stats.frames <- stats.Stats.frames + 1;
            stats.Stats.calls <- stats.Stats.calls + 1
          end;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm c.code.instrs slots nfp limit (budget - (steps + 1)) acc 0 0
      | Prim { pfn = Pure fn; parity; pname } ->
          (* Pure primitives push no frame on the stack policy and
             return straight to the fall-through pc, so the call stays
             inside the landing (with the batched counters flushed
             first, because [fn] may raise).  The heap policy counts the
             frame its generic path would have allocated, and honors the
             return-context consumption a tail-positioned primitive
             performs ([pure_call_skips]). *)
          sync vm (steps + 1) (pc + 1) acc;
          let stats = vm.stats in
          if Policy.frames_on_pure_call && stats.Stats.enabled then
            stats.Stats.frames <- stats.Stats.frames + 1;
          if not (Bytecode.arity_matches parity site.cs_nargs) then
            Values.err (pname ^ ": wrong number of arguments") [];
          if stats.Stats.enabled then
            stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          let v = fn (prim_args vm slots (nfp + 2) site.cs_nargs) in
          if Policy.pure_call_skips vm site then begin
            vm.acc <- v;
            Policy.do_return vm;
            relaunch vm
          end
          else exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      | f ->
          sync vm (steps + 1) (pc + 1) acc;
          let stats = vm.stats in
          if stats.Stats.enabled then
            stats.Stats.frames <- stats.Stats.frames + 1;
          Policy.call vm site f;
          relaunch vm)
  | Tail_call { disp; nargs } -> (
      let src = fp + disp in
      let f = slots.(src + 1) in
      match f with
      | Closure c when Policy.fast ->
          (* Same-slot-array tail call: frame is reused in place. *)
          slots.(fp + 1) <- f;
          blit_args slots (src + 2) (fp + 2) nargs;
          vm.code <- c.code;
          vm.nargs <- nargs;
          let stats = vm.stats in
          if stats.Stats.enabled then begin
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
            stats.Stats.calls <- stats.Stats.calls + 1
          end;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm c.code.instrs slots fp limit (budget - (steps + 1)) acc 0 0
      | _ ->
          sync vm (steps + 1) (pc + 1) acc;
          Policy.tail_call vm ~disp ~nargs f;
          relaunch vm)
  | Return -> (
      (* [slots.(fp)] is a return slot only under the stack policy; the
         heap policy's root frame has no slots at all, so the read is
         guarded by the (static) policy constant. *)
      match (if Policy.fast then slots.(fp) else Void) with
      | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
          (* Same-segment return with the caller's frame extent already
             covered: skip the write-back/reload round trip.  The room
             test is exactly the resumed-frame-room re-check. *)
          let nfp = fp - r.rdisp in
          vm.code <- r.rcode;
          Policy.set_fp vm nfp;
          let stats = vm.stats in
          if stats.Stats.enabled then
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm r.rcode.instrs slots nfp limit (budget - (steps + 1)) acc 0
            r.rpc
      | _ ->
          sync vm (steps + 1) (pc + 1) acc;
          Policy.do_return vm;
          relaunch vm)
  | Enter -> (
      let c = vm.code in
      match c.arity with
      | Exactly k when k = vm.nargs && fp + c.frame_words <= limit ->
          (* Fast path: arity matches and the frame extent fits the
             active slot array — nothing to set up (always true of a
             heap frame, allocated at full size).  An armed timer only
             needs its per-call decrement here; the expensive handler
             dispatch happens on the call that exhausts the slice, so
             code running under preemption (the thread benchmarks) stays
             on the fast path between switches. *)
          let t = vm.timer in
          if t > 0 then
            if t = 1 then begin
              vm.timer <- -1;
              sync vm (steps + 1) (pc + 1) acc;
              Policy.fire_timer vm;
              relaunch vm
            end
            else begin
              vm.timer <- t - 1;
              exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
            end
          else exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      | _ ->
          sync vm (steps + 1) (pc + 1) acc;
          Policy.enter vm;
          relaunch vm)
  | Halt ->
      sync vm (steps + 1) (pc + 1) acc;
      vm.halted <- true
  (* ---- fused superinstructions (emitted by Optimize.peephole) ---- *)
  | Const_push (v, i) ->
      let slots = Policy.set vm slots fp i v in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Local_push (i, j) ->
      let slots = Policy.set vm slots fp j slots.(fp + i) in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Free_push (i, j) -> (
      match slots.(fp + 1) with
      | Closure c ->
          let slots = Policy.set vm slots fp j c.frees.(i) in
          exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      | v ->
          sync vm (steps + 1) (pc + 1) acc;
          Values.err "vm: free-push outside closure" [ v ])
  | Global_push (s, i) ->
      let g = gcell vm s in
      if g.gdefined then begin
        let slots = Policy.set vm slots fp i g.gval in
        exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      end
      else begin
        sync vm (steps + 1) (pc + 1) acc;
        Values.err ("unbound variable: " ^ Globals.slot_name s) []
      end
  | Prim_call site ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let v =
          site.ps_fn (prim_args vm slots (fp + site.ps_disp + 2) site.ps_nargs)
        in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      end
      else begin
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_call1 site ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(1) in
        args.(0) <- slots.(fp + site.ps_disp + 2);
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      end
      else begin
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_call2 site ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(2) in
        let base = fp + site.ps_disp + 2 in
        args.(0) <- slots.(base);
        args.(1) <- slots.(base + 1);
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      end
      else begin
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Local_branch_false (i, t) ->
      (* Fused Local_ref + Branch_false: one dispatch.  The skipped
         branch sits at [pc + 1]; fall through lands past it. *)
      let v = slots.(fp + i) in
      exec vm instrs slots fp limit budget v (steps + 1)
        (match v with Bool false -> t | _ -> pc + 2)
  | Prim_branch1 (site, t) ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(1) in
        args.(0) <- slots.(fp + site.ps_disp + 2);
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0
          (match v with Bool false -> t | _ -> pc + 2)
      end
      else begin
        (* The interned [ps_ret] resumes at the retained [Branch_false]
           at [pc + 1], which re-tests the call's returned value. *)
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_branch2 (site, t) ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(2) in
        let base = fp + site.ps_disp + 2 in
        args.(0) <- slots.(base);
        args.(1) <- slots.(base + 1);
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0
          (match v with Bool false -> t | _ -> pc + 2)
      end
      else begin
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_tail_call site ->
      sync vm (steps + 1) (pc + 1) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let v =
          site.ps_fn (prim_args vm slots (fp + site.ps_disp + 2) site.ps_nargs)
        in
        match (if Policy.fast then slots.(fp) else Void) with
        | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
            (* Batched counters were already flushed by [sync] above. *)
            let nfp = fp - r.rdisp in
            vm.code <- r.rcode;
            Policy.set_fp vm nfp;
            exec vm r.rcode.instrs slots nfp limit (budget - (steps + 1)) v 0
              r.rpc
        | _ ->
            vm.acc <- v;
            Policy.do_return vm;
            relaunch vm
      end
      else begin
        Policy.prim_deopt_tail_call vm site;
        relaunch vm
      end
  (* ---- register-addressed forms (Optimize.fuse_operands) ----
     One dispatch covers the argument staging and the consumer.  The
     staged sequence's originals are retained right after the fused head
     as the deopt landing pad, so the skip widths below are fixed by
     shape (operand count, plus the retained [Branch_false] of the
     branch forms), and the sync pc is the same address the retained
     consumer would sync — an error handler or a deopted call resumes
     exactly as in the unfused stream.  Every slow path that re-enters
     the frame policy first spills the operand values into the frame's
     argument slots, so the frame the policy (or a capture under it)
     observes is byte-identical to the unfused execution's. *)
  | Prim_call1_op (site, a) ->
      sync vm (steps + 1) (pc + 2) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(1) in
        args.(0) <- load_op slots fp acc a;
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 2)
      end
      else begin
        ignore
          (Policy.set vm slots fp (site.ps_disp + 2) (load_op slots fp acc a));
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_call2_op (site, a, b) ->
      sync vm (steps + 1) (pc + 3) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(2) in
        args.(0) <- load_op slots fp acc a;
        args.(1) <- load_op slots fp acc b;
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 3)
      end
      else begin
        let v1 = load_op slots fp acc a in
        let v2 = load_op slots fp acc b in
        let slots = Policy.set vm slots fp (site.ps_disp + 2) v1 in
        ignore (Policy.set vm slots fp (site.ps_disp + 3) v2);
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_branch1_op (site, a, t) ->
      sync vm (steps + 1) (pc + 2) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(1) in
        args.(0) <- load_op slots fp acc a;
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0
          (match v with Bool false -> t | _ -> pc + 3)
      end
      else begin
        (* [ps_ret] resumes at the retained [Branch_false] at [pc + 2],
           which re-tests the deopted call's returned value. *)
        ignore
          (Policy.set vm slots fp (site.ps_disp + 2) (load_op slots fp acc a));
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_branch2_op (site, a, b, t) ->
      sync vm (steps + 1) (pc + 3) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(2) in
        args.(0) <- load_op slots fp acc a;
        args.(1) <- load_op slots fp acc b;
        let v = site.ps_fn args in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0
          (match v with Bool false -> t | _ -> pc + 4)
      end
      else begin
        let v1 = load_op slots fp acc a in
        let v2 = load_op slots fp acc b in
        let slots = Policy.set vm slots fp (site.ps_disp + 2) v1 in
        ignore (Policy.set vm slots fp (site.ps_disp + 3) v2);
        Policy.prim_deopt_call vm site;
        relaunch vm
      end
  | Prim_tail1_op (site, a) -> (
      sync vm (steps + 1) (pc + 2) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(1) in
        args.(0) <- load_op slots fp acc a;
        let v = site.ps_fn args in
        match (if Policy.fast then slots.(fp) else Void) with
        | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
            let nfp = fp - r.rdisp in
            vm.code <- r.rcode;
            Policy.set_fp vm nfp;
            exec vm r.rcode.instrs slots nfp limit (budget - (steps + 1)) v 0
              r.rpc
        | _ ->
            vm.acc <- v;
            Policy.do_return vm;
            relaunch vm
      end
      else begin
        ignore
          (Policy.set vm slots fp (site.ps_disp + 2) (load_op slots fp acc a));
        Policy.prim_deopt_tail_call vm site;
        relaunch vm
      end)
  | Prim_tail2_op (site, a, b) -> (
      sync vm (steps + 1) (pc + 3) acc;
      if (gcell vm site.ps_slot).gval == site.ps_guard then begin
        let stats = vm.stats in
        if stats.Stats.enabled then begin
          stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
          stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
        end;
        let args = vm.scratch.(2) in
        args.(0) <- load_op slots fp acc a;
        args.(1) <- load_op slots fp acc b;
        let v = site.ps_fn args in
        match (if Policy.fast then slots.(fp) else Void) with
        | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
            let nfp = fp - r.rdisp in
            vm.code <- r.rcode;
            Policy.set_fp vm nfp;
            exec vm r.rcode.instrs slots nfp limit (budget - (steps + 1)) v 0
              r.rpc
        | _ ->
            vm.acc <- v;
            Policy.do_return vm;
            relaunch vm
      end
      else begin
        let v1 = load_op slots fp acc a in
        let v2 = load_op slots fp acc b in
        let slots = Policy.set vm slots fp (site.ps_disp + 2) v1 in
        ignore (Policy.set vm slots fp (site.ps_disp + 3) v2);
        Policy.prim_deopt_tail_call vm site;
        relaunch vm
      end)
  | Return_op a -> (
      (* Fused producer + [Return]: the returned value comes from the
         operand, never from [acc].  Same fast/slow split as [Return];
         the retained [Return] sits at [pc + 1]. *)
      let v = load_op slots fp acc a in
      match (if Policy.fast then slots.(fp) else Void) with
      | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
          let nfp = fp - r.rdisp in
          vm.code <- r.rcode;
          Policy.set_fp vm nfp;
          let stats = vm.stats in
          if stats.Stats.enabled then
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm r.rcode.instrs slots nfp limit (budget - (steps + 1)) v 0
            r.rpc
      | _ ->
          sync vm (steps + 1) (pc + 2) v;
          Policy.do_return vm;
          relaunch vm)

(* Re-establish the cached landing state from [vm] after a control
   transfer and continue executing (or stop, when the transfer halted the
   machine).  The entry-pc bounds check here is what licences the
   [unsafe_get] fetch inside the landing. *)
and relaunch (vm : Policy.t) =
  if not vm.halted then begin
    let instrs = vm.code.instrs in
    let pc = vm.pc in
    if pc < 0 || pc >= Array.length instrs then
      Values.err "vm: corrupt return address (pc out of range)" [];
    exec vm instrs (Policy.slots vm) (Policy.frame_base vm) (Policy.limit vm)
      (if vm.fuel < 0 then max_int else vm.fuel)
      vm.acc 0 pc
  end

(* One hoisted exception frame per handled error, instead of a
   per-instruction [try ... with].  The handler branch of
   [match ... with exception] is outside the protected region, so the
   recursive call is a tail call: handling N errors takes O(1) stack. *)
let rec run_loop (vm : Policy.t) =
  match relaunch vm with
  | () -> ()
  | exception (Scheme_error (msg, irritants) as exn) -> (
      match Engine.pop_error_handler vm with
      | Some h ->
          Policy.inject_error_handler vm h msg irritants;
          run_loop vm
      | None -> raise exn)

let run ?(fuel = -1) (vm : Policy.t) code =
  Policy.init_run vm code;
  vm.code <- code;
  vm.pc <- 0;
  vm.nargs <- 0;
  vm.acc <- Void;
  vm.halted <- false;
  vm.fuel <- fuel;
  vm.winders <- [];
  (* Route the process-shared timer/output prims at this machine for the
     extent of the run (restored on exit, so nested runs unwind). *)
  Machine_hooks.with_hooks vm.hooks (fun () -> run_loop vm);
  vm.acc

let run_program ?fuel (vm : Policy.t) codes =
  List.fold_left (fun _ code -> run ?fuel vm code) Void codes
