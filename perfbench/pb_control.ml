(* The control layer timed directly through Control's public API, on a
   standalone machine with the session's config: no dispatch loop, no
   prelude, no plain call around the operation under test.

   Each iteration times one operation with the monotonic clock (the
   cost of an empty clock pair is measured and subtracted).  Host words
   are the minor words read with the unboxed, allocation-free
   Gc.minor_words, plus the words of fresh segments (the only blocks
   the control layer allocates straight on the major heap) from the
   machine's own counters. *)

let now_ns = Pb_trace.now_ns

let dummy_code =
  Bytecode.make_code ~name:"perfbench" ~arity:(Rt.Exactly 0) ~frame_words:8
    [| Rt.Halt |]

let frame_words = 8
let frames = 8
let ret0 = Rt.Retaddr { rcode = dummy_code; rpc = 0; rdisp = 0 }
let ret = Rt.Retaddr { rcode = dummy_code; rpc = 0; rdisp = frame_words }

(* A machine holding [frames] frames of [frame_words] words above its
   bottom frame: a small thread stack. *)
let push_frames m =
  Control.init_frame m ret0;
  for _ = 1 to frames do
    let fp = m.Control.fp in
    m.Control.sr.Rt.seg.(fp + frame_words) <- ret;
    m.Control.fp <- fp + frame_words
  done

let words (m : Control.t) =
  Gc.minor_words () +. float_of_int m.Control.stats.Stats.seg_alloc_words

let clock_cost iters =
  let s = ref 0 in
  for _ = 1 to iters do
    let t0 = now_ns () in
    let t1 = now_ns () in
    s := !s + (t1 - t0)
  done;
  float_of_int !s /. float_of_int iters

type result = {
  capture_oneshot_ns : float;
  reinstate_oneshot_ns : float;
  capture_multi_ns : float;
  reinstate_multi_ns : float;
  alloc_segment_ns : float;
  oneshot_pair_words : float;
  multi_pair_words : float;
}

(* [iters] timed iterations of each kind, after as many untimed ones. *)
let measure ~config ~iters =
  let clk = clock_cost iters in
  let per n total = (float_of_int total /. float_of_int n) -. clk in
  (* Mean capture ns, reinstate ns and words of [iters] pairs. *)
  let time_pairs pair =
    for _ = 1 to iters do
      ignore (pair ())
    done;
    let cap = ref 0 and rein = ref 0 and w = ref 0. in
    for _ = 1 to iters do
      let c, r, pw = pair () in
      cap := !cap + c;
      rein := !rein + r;
      w := !w +. pw
    done;
    (per iters !cap, per iters !rein, !w /. float_of_int iters)
  in
  (* One-shot: capture encapsulates the whole segment and continues on a
     cached one; reinstate adopts the record's segment back and returns
     the abandoned one to the cache.  The machine ends each pair as it
     began, so no re-initialisation is needed. *)
  let m = Control.create config in
  push_frames m;
  let pair_oneshot () =
    let w0 = words m in
    let t0 = now_ns () in
    let k = Control.capture_oneshot m in
    let t1 = now_ns () in
    ignore (Control.reinstate m k);
    let t2 = now_ns () in
    (t1 - t0, t2 - t1, words m -. w0)
  in
  let capture_oneshot_ns, reinstate_oneshot_ns, oneshot_pair_words =
    time_pairs pair_oneshot
  in
  (* Multi-shot: capture seals the occupied frames; reinstate takes the
     in-place unseal path the VM takes for an immediate return through
     the continuation, which leaves one frame fewer.  So the frames are
     rebuilt (untimed) after each pair, on the same segment: the pair's
     records are dead by then, and handing their segment back to the
     cache keeps the rebuild from allocating a fresh one. *)
  let m = Control.create config in
  push_frames m;
  let pair_multi () =
    let w0 = words m in
    let t0 = now_ns () in
    let k = Control.capture_multi m in
    let t1 = now_ns () in
    ignore (Control.reinstate m k);
    let t2 = now_ns () in
    let w = words m -. w0 in
    Control.release_segment m m.Control.sr.Rt.seg;
    push_frames m;
    (t1 - t0, t2 - t1, w)
  in
  let capture_multi_ns, reinstate_multi_ns, multi_pair_words =
    time_pairs pair_multi
  in
  (* Segment cache: pop a default-size segment, then give it back. *)
  let m = Control.create config in
  let n = config.Control.seg_words in
  let pop () =
    let t0 = now_ns () in
    let seg = Control.alloc_segment m n in
    let t1 = now_ns () in
    Control.release_segment m seg;
    t1 - t0
  in
  for _ = 1 to iters do
    ignore (pop ())
  done;
  let a = ref 0 in
  for _ = 1 to iters do
    a := !a + pop ()
  done;
  {
    capture_oneshot_ns;
    reinstate_oneshot_ns;
    capture_multi_ns;
    reinstate_multi_ns;
    alloc_segment_ns = per iters !a;
    oneshot_pair_words;
    multi_pair_words;
  }
