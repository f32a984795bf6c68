(* In-memory spans around the benchmark's own calls into each layer.

   A span is (name, start, stop, parent, op id); times are monotonic
   nanoseconds.  Spans are only appended while tracing, kept in growable
   int arrays, and written out once the run ends, as Chrome trace-event
   JSON (load it in chrome://tracing or Perfetto). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;  (** span name table; a span stores an index *)
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
}

let create names =
  let cap = 4096 in
  {
    names;
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Open a span named [names.(name)]; returns its index. *)
let enter t ~name ~parent ~op =
  if t.n = Array.length t.name then begin
    t.name <- grow t.name;
    t.start <- grow t.start;
    t.stop <- grow t.stop;
    t.parent <- grow t.parent;
    t.op <- grow t.op
  end;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.start.(i) <- now_ns ();
  i

let leave t i = t.stop.(i) <- now_ns ()

let span t ~name ~parent ~op f =
  let i = enter t ~name ~parent ~op in
  match f () with
  | r ->
      leave t i;
      r
  | exception e ->
      leave t i;
      raise e

let dur t i = t.stop.(i) - t.start.(i)

(* Self time per span name, in ns: each span's duration minus the part
   of it its child spans cover (children of one span never overlap). *)
let self_ns t =
  let covered = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then covered.(p) <- covered.(p) + dur t i
  done;
  let self = Array.make (Array.length t.names) 0 in
  for i = 0 to t.n - 1 do
    self.(t.name.(i)) <- self.(t.name.(i)) + dur t i - covered.(i)
  done;
  self

let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}"
      (if i = 0 then "" else ",\n")
      t.names.(t.name.(i))
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int (dur t i) /. 1e3)
      t.op.(i) t.parent.(i)
  done;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
