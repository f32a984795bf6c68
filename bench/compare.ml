(* Compare two oneshot-bench/v1 JSON baselines (see bench/main.ml's
   [--json]):

     dune exec bench/compare.exe -- BASELINE.json CURRENT.json [--tolerance PCT]

   Deterministic counters (instruction counts, words copied, segment
   allocation words) are execution-shape facts, not measurements: any
   increase beyond the tolerance (default 2%, to absorb deliberate small
   workload tweaks) is reported as a REGRESSION and the exit status is 1.
   Wall-clock fields ("ms", "ms_median") are noisy on shared CI machines,
   so their deltas are printed for information only and never affect the
   exit status.

   Every experiment of the baseline must appear in the current run: a
   silently dropped experiment would otherwise read as "no regressions"
   while measuring nothing, so that direction is a failure (exit 1).
   The other direction is a note, not a failure — an experiment only in
   the current run is how a new backend or workload first shows up
   against an older baseline; it still belongs in the next refreshed
   baseline, where it becomes load-bearing.  Likewise a deterministic
   counter recorded in the baseline but absent from the current run is a
   failure; counters the baseline never recorded are skipped (older
   baselines predate newer counters).  An experiment that records "ms"
   without "ms_median" draws a warning — it was measured with --iters 1,
   so there is no robustness check on its headline number.  A schema or
   mode mismatch is a hard error (exit 2) because the numbers would not
   be comparable.

   Experiments named "<e>.heap"/"<e>.heap-<op>" (the heap-frame
   baseline) run the same workload as "<e>.stack" / "<e>.<op>"; when the
   baseline has the stack-backend counterpart, its wall clock against the
   current run is printed as an explicit speedup line.  A final summary
   block lists the per-experiment instruction-count delta in percent for
   every experiment recording "instrs" in both runs — the at-a-glance
   view of how a bytecode change moved the corpus, independent of the
   tolerance gate. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader (objects, strings, numbers) -- the harness       *)
(* writer emits only this subset, and the repo deliberately has no      *)
(* JSON dependency.                                                     *)
(* ------------------------------------------------------------------ *)

type json =
  | Obj of (string * json) list
  | Str of string
  | Num of float

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | _ -> fail "unsupported escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '"' -> Str (parse_string ())
    | Some ('0' .. '9' | '-') -> parse_number ()
    | _ -> fail "expected value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      advance ();
      Obj [])
    else
      let rec members acc =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((key, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "error: cannot open %s: %s\n" path msg;
      exit 2
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load path =
  match parse_json (read_file path) with
  | Obj fields -> fields
  | _ ->
      Printf.eprintf "error: %s: top level is not an object\n" path;
      exit 2
  | exception Parse_error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 2

let str_field fields name =
  match List.assoc_opt name fields with Some (Str s) -> Some s | _ -> None

let obj_field fields name =
  match List.assoc_opt name fields with Some (Obj o) -> Some o | _ -> None

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(* Counters whose values are fully determined by the workload: a diff is
   a genuine change in execution shape.  [cache_hits]/[seg_allocs] etc.
   are also deterministic but measure policy, not cost; the three below
   are the cost metrics the perf harness is accountable to. *)
let deterministic = [ "instrs"; "words_copied"; "seg_alloc_words" ]
let informational = [ "ms"; "ms_median" ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec tol_arg = function
    | "--tolerance" :: t :: _ -> (
        match float_of_string_opt t with
        | Some f when f >= 0. -> f
        | _ ->
            Printf.eprintf "--tolerance expects a percentage, got %s\n" t;
            exit 2)
    | _ :: rest -> tol_arg rest
    | [] -> 2.0
  in
  let tolerance = tol_arg argv in
  let rec positional = function
    | [] -> []
    | "--tolerance" :: _ :: rest -> positional rest
    | x :: rest -> x :: positional rest
  in
  let base_path, cur_path =
    match positional argv with
    | [ a; b ] -> (a, b)
    | _ ->
        Printf.eprintf
          "usage: compare BASELINE.json CURRENT.json [--tolerance PCT]\n";
        exit 2
  in
  let base = load base_path and cur = load cur_path in
  (* Comparability gate. *)
  List.iter
    (fun key ->
      let b = str_field base key and c = str_field cur key in
      if b <> c then (
        Printf.eprintf
          "error: %s mismatch (%s: %s, %s: %s) -- runs are not comparable\n"
          key base_path
          (Option.value b ~default:"?")
          cur_path
          (Option.value c ~default:"?");
        exit 2))
    [ "schema"; "mode" ];
  let base_exps =
    match obj_field base "experiments" with Some o -> o | None -> []
  in
  let cur_exps =
    match obj_field cur "experiments" with Some o -> o | None -> []
  in
  let regressions = ref 0
  and improvements = ref 0
  and checked = ref 0
  and missing = ref 0
  and warnings = ref 0
  and notes = ref 0 in
  Printf.printf "comparing %s (baseline) -> %s, tolerance %.1f%%\n" base_path
    cur_path tolerance;
  Printf.printf "  %-28s %-16s %14s %14s %9s\n" "experiment" "counter"
    "baseline" "current" "delta";
  let delta_pct b c =
    if b = 0. then if c = 0. then 0. else infinity
    else (c -. b) /. Float.abs b *. 100.
  in
  let num fields name =
    match List.assoc_opt name fields with Some (Num f) -> Some f | _ -> None
  in
  List.iter
    (fun (name, bj) ->
      match (bj, List.assoc_opt name cur_exps) with
      | Obj bm, Some (Obj cm) ->
          List.iter
            (fun counter ->
              match (num bm counter, num cm counter) with
              | Some b, Some c ->
                  incr checked;
                  let d = delta_pct b c in
                  if Float.abs d > tolerance then (
                    let tag =
                      if d > 0. then (
                        incr regressions;
                        "REGRESSION")
                      else (
                        incr improvements;
                        "improved")
                    in
                    Printf.printf "  %-28s %-16s %14.0f %14.0f %+8.1f%% %s\n"
                      name counter b c d tag)
              | Some _, None ->
                  incr missing;
                  Printf.printf
                    "  %-28s %-16s: MISSING in current (baseline records it)\n"
                    name counter
              | None, _ -> ())
            deterministic;
          List.iter
            (fun field ->
              match (num bm field, num cm field) with
              | Some b, Some c ->
                  let d = delta_pct b c in
                  if Float.abs d > tolerance then
                    Printf.printf
                      "  %-28s %-16s %14.1f %14.1f %+8.1f%% (wall clock, \
                       informational)\n"
                      name field b c d
              | _ -> ())
            informational
      | _, None ->
          incr missing;
          Printf.printf "  %-28s: MISSING in current (only in baseline)\n" name
      | _ -> ())
    base_exps;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_exps) then (
        incr notes;
        Printf.printf
          "  %-28s: note: only in current (refresh the baseline to pin it)\n"
          name))
    cur_exps;
  (* Median robustness check: "ms" without "ms_median" means the run was
     measured once (--iters 1), so the headline number has no noise
     control. *)
  List.iter
    (fun (name, j) ->
      match j with
      | Obj m when num m "ms" <> None && num m "ms_median" = None ->
          incr warnings;
          Printf.printf
            "  %-28s: warning: records \"ms\" without \"ms_median\" (measured \
             with --iters 1?)\n"
            name
      | _ -> ())
    cur_exps;
  (* Backend speedup lines: pair each current "*.heap*" experiment with
     the stack-backend key it shadows and report the wall-clock ratio
     against the baseline. *)
  let heap_counterpart name =
    match String.index_opt name '.' with
    | None -> None
    | Some dot ->
        let prefix = String.sub name 0 (dot + 1) in
        let rest = String.sub name (dot + 1) (String.length name - dot - 1) in
        if rest = "heap" then Some (prefix ^ "stack")
        else if String.starts_with ~prefix:"heap-" rest then
          Some (prefix ^ String.sub rest 5 (String.length rest - 5))
        else None
  in
  List.iter
    (fun (name, j) ->
      match (j, heap_counterpart name) with
      | Obj cm, Some base_name -> (
          match
            ( num cm "ms",
              match List.assoc_opt base_name base_exps with
              | Some (Obj bm) -> num bm "ms"
              | _ -> None )
          with
          | Some cur_ms, Some base_ms when cur_ms > 0. ->
              Printf.printf
                "  heap backend: %s %.1f ms vs baseline %s %.1f ms = %.2fx \
                 speedup\n"
                name cur_ms base_name base_ms (base_ms /. cur_ms)
          | _ -> ())
      | _ -> ())
    cur_exps;
  (* Per-experiment instruction-count deltas, tolerance-independent. *)
  let instr_rows =
    List.filter_map
      (fun (name, j) ->
        match (j, List.assoc_opt name base_exps) with
        | Obj cm, Some (Obj bm) -> (
            match (num bm "instrs", num cm "instrs") with
            | Some b, Some c -> Some (name, b, c)
            | _ -> None)
        | _ -> None)
      cur_exps
  in
  if instr_rows <> [] then begin
    Printf.printf "instruction counts (baseline -> current):\n";
    List.iter
      (fun (name, b, c) ->
        Printf.printf "  %-28s %14.0f %14.0f %+8.1f%%\n" name b c
          (delta_pct b c))
      instr_rows
  end;
  (* Scaling summary: experiments recording "jobs" + "speedup" (e9's
     data-parallel legs) report their speedup at N
     shards against the run's own sequential reference; the baseline's
     speedup prints alongside when it recorded the same experiment.
     Like wall clock, these are informational -- the deterministic
     gates above already cover the counters. *)
  let scaling_rows =
    List.filter_map
      (fun (name, j) ->
        match j with
        | Obj m -> (
            match (num m "jobs", num m "speedup") with
            | Some jb, Some sp -> Some (name, jb, sp, num m "ms")
            | _ -> None)
        | _ -> None)
      cur_exps
  in
  if scaling_rows <> [] then begin
    Printf.printf "scaling summary (speedup at N shards vs sequential):\n";
    List.iter
      (fun (name, jb, sp, ms) ->
        let base_sp =
          match List.assoc_opt name base_exps with
          | Some (Obj bm) -> num bm "speedup"
          | _ -> None
        in
        Printf.printf "  %-28s %2.0f shard(s) %8.2fx%s%s\n" name jb sp
          (match ms with
          | Some m -> Printf.sprintf "  %10.1f ms" m
          | None -> "")
          (match base_sp with
          | Some b -> Printf.sprintf "   (baseline %.2fx)" b
          | None -> ""))
      scaling_rows
  end;
  Printf.printf
    "%d deterministic counters checked: %d regression(s), %d improvement(s), \
     %d missing, %d warning(s), %d note(s)\n"
    !checked !regressions !improvements !missing !warnings !notes;
  if !regressions > 0 || !missing > 0 then (
    if !regressions > 0 then
      Printf.printf
        "FAIL: deterministic counters regressed beyond %.1f%% tolerance\n"
        tolerance;
    if !missing > 0 then
      Printf.printf
        "FAIL: experiments/counters missing from the current run\n";
    exit 1)
  else Printf.printf "OK: no deterministic-counter regressions\n"
