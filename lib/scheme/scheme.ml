type backend =
  | Stack of Control.config
  | Heap
  | Oracle

type machine =
  | M_stack of Vm.t
  | M_heap of Heapvm.t
  | M_oracle of Oracle.t

(* A task shipped to a worker shard, and what comes back.  Everything in
   a task is either immutable OCaml data or a {!Flatvalue.t} (heap-
   detached by construction), so tasks cross domains freely. *)
type partask = {
  pt_id : int; (* chunk index; results/outputs reassemble in this order *)
  pt_mode : string; (* "map" | "for-each" | "reduce" *)
  pt_fname : string; (* global name of the task procedure *)
  pt_args : Flatvalue.t array; (* the chunk's items *)
  pt_init : Flatvalue.t option; (* reduce seed *)
}

type paroutcome = {
  po_result : (Flatvalue.t, string) result;
      (* Ok: the chunk driver's payload (result vector / reduce partial),
         serialized in the worker; Error: a rendered error message *)
  po_output : string; (* display/write output the chunk produced *)
}

type t = {
  which : backend;
  machine : machine;
  stats : Stats.t;
  peephole : bool;
  regalloc : bool;
  verify : bool;
  hygiene : bool;
  mutable par : parpool option;
}

(* The data-parallel pool attached to a master session (par_attach).
   Workers are fully independent sessions — one per pool slot, created
   on the worker's own domain — fed through per-slot task deques.  The
   mutex guards every mutable field below; the condition variable is
   both the workers' "work arrived" signal and the master's "dispatch
   drained" signal. *)
and parpool = {
  p_jobs : int;
  p_chunk : int;
  p_steal : bool;
  p_domains : bool; (* false: tasks run inline on the calling domain *)
  p_fuel : int option;
  p_corpus : bool; (* workers preload the benchmark corpus *)
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_log : string list; (* master-evaluated definition forms, newest
                                  first; workers replay before each task *)
  mutable p_loglen : int;
  p_deques : partask list ref array; (* slot i's tasks, front = next own pop;
                                        steals take the back *)
  mutable p_outcomes : paroutcome option array; (* current dispatch, by id *)
  mutable p_remaining : int; (* tasks not yet completed; 0 = idle *)
  mutable p_shutdown : bool;
  mutable p_handles : unit Domain.t list;
  p_seq_workers : parworker option array; (* lazily created, p_domains=false *)
  p_shard_stats : Stats.t option array;
      (* each worker publishes its session's counter block here at
         creation; the master may read it only while the pool is idle
         (the dispatch-drained handshake under [p_lock] orders the
         worker's counter writes before the master's reads) *)
}

and parworker = {
  w_session : t;
  mutable w_replayed : int;
  w_out : Buffer.t; (* the session's output buffer, cleared per chunk *)
  w_drivers : (string, Rt.code list) Hashtbl.t;
      (* compiled chunk drivers by source text; emptied by replay *)
}

(* The one place a session compiles: its peephole/regalloc/verify
   settings over the machine's hygiene switch, macro environment and
   global table.  [`Text] is a whole program, [`Datum] one
   already-read top-level form. *)
let compile t (vm : _ Engine.vm) src =
  let peephole = t.peephole and regalloc = t.regalloc and verify = t.verify in
  let hygiene = vm.Engine.hygiene and menv = vm.Engine.menv in
  match src with
  | `Text text ->
      Compiler.compile_string ~peephole ~regalloc ~verify ~hygiene ~menv
        vm.Engine.globals text
  | `Datum d ->
      Compiler.compile_datum ~peephole ~regalloc ~verify ~hygiene ~menv
        vm.Engine.globals d

let eval_machine ?fuel t src =
  match (t.machine, src) with
  | M_stack vm, _ -> Vm.run_program ?fuel vm (compile t vm src)
  | M_heap vm, _ -> Heapvm.run_program ?fuel vm (compile t vm src)
  | M_oracle o, `Text text -> Oracle.eval ?fuel o text
  | M_oracle o, `Datum d -> Oracle.eval_datum ?fuel o d

let machine_globals = function
  | M_stack vm -> Vm.globals vm
  | M_heap vm -> Heapvm.globals vm
  | M_oracle o -> Oracle.globals o

let create ?(backend = Stack Control.default_config) ?stats
    ?(scheme_winders = false) ?(peephole = true) ?(regalloc = true)
    ?(verify = false) ?(hygiene = true) () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let machine =
    match backend with
    | Stack config -> M_stack (Vm.create ~config ~stats ())
    | Heap -> M_heap (Heapvm.create ~stats ())
    | Oracle -> M_oracle (Oracle.create ~stats ())
  in
  (match machine with
  | M_stack vm -> vm.Engine.hygiene <- hygiene
  | M_heap vm -> vm.Engine.hygiene <- hygiene
  | M_oracle o -> Oracle.set_hygiene o hygiene);
  let t =
    { which = backend; machine; stats; peephole; regalloc; verify; hygiene;
      par = None }
  in
  (match machine with
  | M_oracle _ ->
      (* The oracle interprets ASTs and represents procedures as
         [Ofun]s, so it cannot consume the bytecode image. *)
      ignore
        (eval_machine t
           (`Text
             (if scheme_winders then Prelude.source_scheme_winders
              else Prelude.source)));
      ignore (eval_machine t (`Text Parprelude.source))
  | M_stack _ | M_heap _ ->
      (* Compile-once shared prelude: copy the image's global-slot
         delta instead of re-expanding/re-compiling/re-executing the
         sources — the session dispatches zero instructions before
         its first user form (pinned in test_perf_counters). *)
      Prelude_image.install
        (Prelude_image.get ~scheme_winders ~optimize:false ~peephole ~regalloc)
        (machine_globals machine));
  t

let backend t = t.which

(* Worker shards rebuild the master's global environment by replaying
   its evaluation history.  Only binding forms matter for that — pure
   expressions would just redo the master's computation on every shard —
   so the log keeps a top-level form iff it (or a top-level [begin]
   wrapping it) is a definition or assignment.  Definitions produced by
   user macro calls are not recognized; DESIGN.md §15 records the
   restriction. *)
let rec par_binding_form (d : Sexp.t) =
  match d with
  | Sexp.List (Sexp.Sym (head, _) :: rest, _) -> (
      match head with
      | "define" | "define-syntax" | "set!" -> true
      | "begin" -> List.exists par_binding_form rest
      | _ -> false)
  | _ -> false

let par_log_worthy src =
  match Sexp.read_all src with
  | ds -> List.exists par_binding_form ds
  | exception _ -> true (* conservative: replay what we cannot classify *)

let eval ?fuel t src =
  let v = eval_machine ?fuel t (`Text src) in
  (match t.par with
  | Some pool when par_log_worthy src ->
      Mutex.lock pool.p_lock;
      pool.p_log <- src :: pool.p_log;
      pool.p_loglen <- pool.p_loglen + 1;
      Mutex.unlock pool.p_lock
  | _ -> ());
  v

let eval_string ?fuel t src = Values.write_string (eval ?fuel t src)

(* Per-form evaluation: one already-read top-level datum, so the caller
   can attribute a failure to the datum's own source position.  The par
   replay log stores the datum re-rendered as text (positions are
   irrelevant to replay). *)
let eval_datum ?fuel t d =
  let v = eval_machine ?fuel t (`Datum d) in
  (match t.par with
  | Some pool when par_binding_form d ->
      Mutex.lock pool.p_lock;
      pool.p_log <- Sexp.to_string d :: pool.p_log;
      pool.p_loglen <- pool.p_loglen + 1;
      Mutex.unlock pool.p_lock
  | _ -> ());
  v

let load_corpus t =
  ignore (eval_machine t (`Text Programs.all_defs));
  ignore (eval_machine t (`Text Threads.scheduler))

let output t =
  match t.machine with
  | M_stack vm -> Vm.output vm
  | M_heap vm -> Heapvm.output vm
  | M_oracle o -> Oracle.output o

let stats t = t.stats

let control t =
  match t.machine with
  | M_stack vm -> Some (Vm.control vm)
  | _ -> None

let globals t = machine_globals t.machine

(* ------------------------------------------------------------------ *)
(* Data-parallel pool (par-map / par-reduce / par-for-each)            *)
(* ------------------------------------------------------------------ *)

(* A worker shard is a fresh, fully independent session built from the
   master's own settings (an oracle master gets stack workers: task
   execution is an engine feature).  Counters reset after the corpus
   load, so a shard's stats describe its tasks alone. *)
let par_worker_session master pool i =
  let stats = Stats.create () in
  let backend =
    match master.which with Oracle -> Stack Control.default_config | b -> b
  in
  let s =
    create ~backend ~stats ~peephole:master.peephole
      ~regalloc:master.regalloc ~verify:master.verify ~hygiene:master.hygiene
      ()
  in
  if pool.p_corpus then load_corpus s;
  Stats.reset stats;
  Mutex.lock pool.p_lock;
  pool.p_shard_stats.(i) <- Some stats;
  Mutex.unlock pool.p_lock;
  let w_out =
    match s.machine with
    | M_stack vm -> vm.Engine.out
    | M_heap vm -> vm.Engine.out
    | M_oracle _ -> invalid_arg "Scheme.par: oracle sessions cannot be workers"
  in
  { w_session = s; w_replayed = 0; w_out; w_drivers = Hashtbl.create 4 }

(* Bring a worker's globals up to date with the master's definition log.
   Replay is bookkeeping, not task work: its counters are cancelled with
   a snapshot/restore so per-shard stats stay comparable across
   distributions.  A replay error is swallowed — the form succeeded on
   the master, and a worker that cannot rebuild one binding should still
   run tasks that never touch it.  A replayed form may change how the
   chunk driver text expands (a [define-syntax]), so the table of
   compiled drivers is emptied. *)
let par_replay pool w =
  Mutex.lock pool.p_lock;
  let log = pool.p_log and len = pool.p_loglen in
  Mutex.unlock pool.p_lock;
  if len > w.w_replayed then begin
    let snap = Stats.copy (stats w.w_session) in
    let fresh = List.filteri (fun i _ -> i < len - w.w_replayed) log in
    List.iter
      (fun src ->
        try ignore (eval ?fuel:pool.p_fuel w.w_session src) with _ -> ())
      (List.rev fresh);
    w.w_replayed <- len;
    Hashtbl.reset w.w_drivers;
    Stats.blit ~src:snap ~dst:(stats w.w_session)
  end

(* Run the chunk driver [src] on a worker.  The driver text takes only a
   few distinct values per worker (one per mode and task procedure), so
   it is read, expanded and compiled once and the code rerun; the
   oracle has no bytecode and evaluates the text. *)
let par_run_driver pool w src =
  let s = w.w_session in
  let driver (vm : _ Engine.vm) =
    match Hashtbl.find_opt w.w_drivers src with
    | Some codes -> codes
    | None ->
        let codes = compile s vm (`Text src) in
        Hashtbl.replace w.w_drivers src codes;
        codes
  in
  match s.machine with
  | M_stack vm -> Vm.run_program ?fuel:pool.p_fuel vm (driver vm)
  | M_heap vm -> Heapvm.run_program ?fuel:pool.p_fuel vm (driver vm)
  | M_oracle _ -> eval ?fuel:pool.p_fuel s src

(* Run one chunk on a worker session.  The per-chunk discipline exists
   for counter determinism: before every chunk the segment cache is
   reset to a canonical warm state of [p_chunk + 2] standard segments
   (one per fiber, one for the [alldone] exit continuation, one for the
   driver run's own initial frame), so a chunk's deterministic counters
   (instrs, words-copied, seg-alloc-words) do not depend on which chunks
   ran on this worker earlier — that is what makes no-steal shard
   counters sum exactly to a 1-worker run's, the identity bench e9
   asserts — while a chunk that fits starts cache-warm and allocates no
   segment at all.  The worker's output buffer is cleared likewise, so
   each chunk pays only for its own output. *)
let par_exec_task pool w (task : partask) =
  par_replay pool w;
  let s = w.w_session in
  let st = stats s in
  if st.Stats.enabled then st.Stats.par_tasks <- st.Stats.par_tasks + 1;
  (match control s with
  | Some c -> Control.reset_cache c (pool.p_chunk + 2)
  | None -> ());
  Buffer.clear w.w_out;
  Globals.define (globals s) "%par-args"
    (Rt.Vec (Array.map Flatvalue.deserialize task.pt_args));
  (match task.pt_init with
  | Some fv -> Globals.define (globals s) "%par-init" (Flatvalue.deserialize fv)
  | None -> ());
  let sanitize () =
    (* After an abnormal exit the chunk's preemption timer may still be
       armed; disarm it so it cannot fire into a dead scheduler during
       the next chunk.  (The in-band error path already disarms.) *)
    try ignore (eval s "(%set-timer! 0 #f)") with _ -> ()
  in
  let result =
    match
      par_run_driver pool w
        (Printf.sprintf "(%%par-run-chunk (quote %s) %s)" task.pt_mode
           task.pt_fname)
    with
    | Rt.Vec [| Rt.Sym tag; payload |] when String.equal tag "%par-ok" -> (
        try Ok (Flatvalue.serialize payload) with
        | Flatvalue.Not_flat v ->
            Error
              ("par: non-flat value crossing shard boundary: "
              ^ Flatvalue.describe v)
        | Flatvalue.Too_large ->
            Error "par: value too large to cross shard boundary")
    | Rt.Vec [| Rt.Sym tag; msg |] when String.equal tag "%par-error" ->
        Error (Values.display_string msg)
    | v -> Error ("par: malformed chunk result: " ^ Values.write_string v)
    | exception Rt.Scheme_error (msg, _) ->
        sanitize ();
        Error msg
    | exception Rt.Shot_continuation ->
        sanitize ();
        Error "par: one-shot continuation reinvoked in worker task"
    | exception Engine.Vm_fuel_exhausted ->
        sanitize ();
        Error "par: fuel exhausted in worker task"
    | exception e ->
        sanitize ();
        Error ("par: worker failure: " ^ Printexc.to_string e)
  in
  { po_result = result; po_output = Buffer.contents w.w_out }

type par_next = P_shutdown | P_task of partask * bool | P_wait

(* Called with the pool lock held.  Own deque pops the front; stealing
   scans the other slots round-robin from the right neighbour and takes
   the *back* of the first non-empty deque (the classic work-stealing
   end split: owners and thieves contend on opposite ends). *)
let par_take pool i =
  if pool.p_shutdown then P_shutdown
  else
    let dq = pool.p_deques.(i) in
    match !dq with
    | task :: rest ->
        dq := rest;
        P_task (task, false)
    | [] ->
        if pool.p_steal && pool.p_remaining > 0 then begin
          let found = ref P_wait in
          let k = ref 0 in
          while
            (match !found with P_wait -> true | _ -> false)
            && !k < pool.p_jobs - 1
          do
            let j = (i + 1 + !k) mod pool.p_jobs in
            (match !(pool.p_deques.(j)) with
            | [] -> ()
            | l ->
                let rev = List.rev l in
                pool.p_deques.(j) := List.rev (List.tl rev);
                found := P_task (List.hd rev, true));
            incr k
          done;
          !found
        end
        else P_wait

let par_worker_loop master pool i =
  let w = par_worker_session master pool i in
  let rec loop () =
    Mutex.lock pool.p_lock;
    let rec get () =
      match par_take pool i with
      | P_shutdown -> None
      | P_task (t, stolen) -> Some (t, stolen)
      | P_wait ->
          Condition.wait pool.p_cond pool.p_lock;
          get ()
    in
    let next = get () in
    Mutex.unlock pool.p_lock;
    match next with
    | None -> ()
    | Some (task, stolen) ->
        let st = stats w.w_session in
        if stolen && st.Stats.enabled then
          st.Stats.par_steals <- st.Stats.par_steals + 1;
        let outcome = par_exec_task pool w task in
        Mutex.lock pool.p_lock;
        pool.p_outcomes.(task.pt_id) <- Some outcome;
        pool.p_remaining <- pool.p_remaining - 1;
        if pool.p_remaining = 0 then Condition.broadcast pool.p_cond;
        Mutex.unlock pool.p_lock;
        loop ()
  in
  loop ()

(* Master side: resolve the task procedure to a global name.  Closures
   cannot cross domains (they close over one session's heap), so tasks
   name their procedure through the global table and each shard looks
   the name up in its own replayed environment — the deliberate
   restriction DESIGN.md §15 records as the stepping stone to migratable
   continuations.  Primitives ship by their own name. *)
let par_proc_name t v =
  match v with
  | Rt.Prim p -> p.Rt.pname
  | Rt.Closure _ | Rt.Ofun _ -> (
      let found =
        Globals.fold
          (fun name (cell : Rt.global) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if cell.Rt.gdefined && cell.Rt.gval == v then Some name
                else None)
          (globals t) None
      in
      match found with
      | Some name -> name
      | None ->
          raise
            (Rt.Scheme_error
               ( "par: task procedure must be globally named to cross shards",
                 [ v ] )))
  | v -> raise (Rt.Scheme_error ("par: not a procedure", [ v ]))

let par_serialize v =
  try Flatvalue.serialize v with
  | Flatvalue.Not_flat nf ->
      raise
        (Rt.Scheme_error
           ( "par: non-flat value crossing shard boundary: "
             ^ Flatvalue.describe nf,
             [] ))
  | Flatvalue.Too_large ->
      raise (Rt.Scheme_error ("par: value too large to cross shard boundary", []))

(* Split the serialized items into chunk tasks of [p_chunk] items.  The
   chunk size never depends on [jobs]: chunk contents (and so each
   chunk's deterministic counter footprint) are distribution-invariant,
   which is what makes shard counters sum identically at any pool
   width. *)
let par_make_tasks pool mode fname init flat_items =
  let chunk = pool.p_chunk in
  let rec go id acc cur n = function
    | [] ->
        let acc =
          if cur = [] then acc
          else
            {
              pt_id = id;
              pt_mode = mode;
              pt_fname = fname;
              pt_args = Array.of_list (List.rev cur);
              pt_init = init;
            }
            :: acc
        in
        List.rev acc
    | x :: rest ->
        if n = chunk then
          go (id + 1)
            ({
               pt_id = id;
               pt_mode = mode;
               pt_fname = fname;
               pt_args = Array.of_list (List.rev cur);
               pt_init = init;
             }
            :: acc)
            [ x ] 1 rest
        else go id acc (x :: cur) (n + 1) rest
  in
  go 0 [] [] 0 flat_items

(* The master's dispatch: a *pure* primitive, so it runs inline in the
   dispatch loop with no frame and may block — the master VM is never
   re-entered while it waits.  Tasks are dealt round-robin (task i to
   slot i mod jobs); with stealing off that assignment is final, which
   is the deterministic mode counter pinning relies on. *)
let par_dispatch t pool emit args =
  let mode =
    match args.(0) with
    | Rt.Sym m -> m
    | v -> raise (Rt.Scheme_error ("par: mode must be a symbol", [ v ]))
  in
  let f, init, xs =
    match (mode, args) with
    | ("map" | "for-each"), [| _; f; xs |] -> (f, None, xs)
    | "reduce", [| _; op; init; xs |] -> (op, Some init, xs)
    | ("map" | "for-each" | "reduce"), _ ->
        raise
          (Rt.Scheme_error ("par: wrong number of arguments for " ^ mode, []))
    | _ -> raise (Rt.Scheme_error ("par: unknown mode " ^ mode, []))
  in
  let fname = par_proc_name t f in
  let items =
    match Values.list_of_value_opt xs with
    | Some l -> l
    | None -> raise (Rt.Scheme_error ("par: expected a proper list", [ xs ]))
  in
  if items = [] then Rt.Nil
  else begin
    let init_flat = Option.map par_serialize init in
    let flat = List.map par_serialize items in
    let tasks = par_make_tasks pool mode fname init_flat flat in
    let ntasks = List.length tasks in
    let outcomes = Array.make ntasks None in
    let per_slot = Array.make pool.p_jobs [] in
    List.iter
      (fun task ->
        let slot = task.pt_id mod pool.p_jobs in
        per_slot.(slot) <- task :: per_slot.(slot))
      (List.rev tasks);
    if pool.p_domains then begin
      Mutex.lock pool.p_lock;
      Array.iteri (fun i dq -> dq := per_slot.(i)) pool.p_deques;
      pool.p_outcomes <- outcomes;
      pool.p_remaining <- ntasks;
      Condition.broadcast pool.p_cond;
      while pool.p_remaining > 0 do
        Condition.wait pool.p_cond pool.p_lock
      done;
      Mutex.unlock pool.p_lock
    end
    else
      (* Sequential mode: the same slots, sessions and per-slot task
         order, executed inline on the calling domain — the reference
         the e9/CI zero-tolerance counter identity compares against. *)
      for i = 0 to pool.p_jobs - 1 do
        let w =
          match pool.p_seq_workers.(i) with
          | Some w -> w
          | None ->
              let w = par_worker_session t pool i in
              pool.p_seq_workers.(i) <- Some w;
              w
        in
        List.iter
          (fun task -> outcomes.(task.pt_id) <- Some (par_exec_task pool w task))
          per_slot.(i)
      done;
    (* Reassemble in chunk order: outputs append in order; the first
       failed chunk (lowest id) raises; map concatenates the chunk
       result vectors; reduce returns the list of partials for the
       Scheme-side fold. *)
    let payloads =
      Array.map
        (function
          | Some o -> o
          | None -> { po_result = Error "par: lost chunk"; po_output = "" })
        outcomes
    in
    let collected =
      Array.to_list payloads
      |> List.map (fun o ->
             match o.po_result with
             | Ok flat ->
                 emit o.po_output;
                 Flatvalue.deserialize flat
             | Error msg -> raise (Rt.Scheme_error (msg, [])))
    in
    match mode with
    | "map" ->
        Values.list_to_value
          (List.concat_map
             (fun payload ->
               match payload with
               | Rt.Vec a -> Array.to_list a
               | v -> [ v ])
             collected)
    | "reduce" -> Values.list_to_value collected
    | _ -> Rt.Void
  end

let par_define_pure t name parity fn =
  Globals.define (globals t) name
    (Rt.Prim { Rt.pname = name; parity; pfn = Pure fn })

let par_attach ?(chunk = 2) ?(steal = true) ?(domains = true) ?fuel
    ?(corpus = false) ~jobs t =
  if t.par <> None then invalid_arg "Scheme.par_attach: pool already attached";
  let jobs = max 1 jobs in
  let chunk = max 1 chunk in
  let pool =
    {
      p_jobs = jobs;
      p_chunk = chunk;
      p_steal = steal;
      p_domains = domains;
      p_fuel = fuel;
      p_corpus = corpus;
      p_lock = Mutex.create ();
      p_cond = Condition.create ();
      p_log = [];
      p_loglen = 0;
      p_deques = Array.init jobs (fun _ -> ref []);
      p_outcomes = Array.make 0 None;
      p_remaining = 0;
      p_shutdown = false;
      p_handles = [];
      p_seq_workers = Array.make jobs None;
      p_shard_stats = Array.make jobs None;
    }
  in
  t.par <- Some pool;
  if domains then
    pool.p_handles <-
      List.init jobs (fun i ->
          Domain.spawn (fun () -> par_worker_loop t pool i));
  (* Rebind the session's par primitives over the pool — the same
     overwrite mechanism Engine.create uses for the timer accessors.
     [emit] is the master's own raw-output primitive, captured once so
     worker output can be appended to the master buffer without
     re-entering the VM. *)
  let emit =
    match Globals.lookup_opt (globals t) "%par-emit" with
    | Some (Rt.Prim { Rt.pfn = Pure f; _ }) ->
        fun s -> if s <> "" then ignore (f [| Rt.Str (Bytes.of_string s) |])
    | _ -> fun _ -> ()
  in
  par_define_pure t "%par-jobs" (Exactly 0) (fun _ -> Rt.Int jobs);
  par_define_pure t "%par-chunk" (Exactly 0) (fun _ -> Rt.Int chunk);
  par_define_pure t "%par-dispatch" (At_least 3) (fun args ->
      par_dispatch t pool emit args)

let par_shutdown t =
  match t.par with
  | None -> ()
  | Some pool ->
      t.par <- None;
      (* Restore the inert defaults so later evals take the serial
         fallback instead of dispatching into a dead pool. *)
      par_define_pure t "%par-jobs" (Exactly 0) (fun _ -> Rt.Int 0);
      par_define_pure t "%par-chunk" (Exactly 0) (fun _ -> Rt.Int 1);
      par_define_pure t "%par-dispatch" (At_least 3) (fun _ ->
          Values.err "par: no pool attached to this session" []);
      Mutex.lock pool.p_lock;
      pool.p_shutdown <- true;
      Condition.broadcast pool.p_cond;
      Mutex.unlock pool.p_lock;
      List.iter Domain.join pool.p_handles

(* Per-shard counter blocks in slot order: the bench (e9) and tests read
   these for the no-steal identity checks.  Only meaningful while the
   pool is idle — the dispatch handshake under [p_lock] orders every
   worker counter write before the master's return from dispatch.  A
   slot that has not executed yet (domain worker still starting up, or
   lazy sequential worker) reads as [None]. *)
let par_shard_stats t =
  match t.par with
  | None -> [||]
  | Some pool ->
      Mutex.lock pool.p_lock;
      let a = Array.copy pool.p_shard_stats in
      Mutex.unlock pool.p_lock;
      a
