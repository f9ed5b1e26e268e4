(* In-memory span recorder for the traced replay.

   A span is one timed call into a layer: a name id, monotonic start and
   stop in nanoseconds, the enclosing span (or -1) and the update the
   call served. Spans are appended to flat growable arrays and read back
   once the replay ends, so recording costs two clock reads and a few
   array stores. A disabled recorder runs the wrapped call and records
   nothing: the untraced replay pays only the closure call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable len : int;
  mutable current : int;  (** Innermost open span, -1 at top level. *)
  mutable request : int;  (** Update the next spans belong to. *)
}

let create ~enabled () =
  let cap = if enabled then 4096 else 0 in
  { enabled; names = Hashtbl.create 32; name_of = [||];
    name = Array.make cap 0; start = Array.make cap 0;
    stop = Array.make cap 0; parent = Array.make cap 0;
    req = Array.make cap 0; len = 0; current = -1; request = 0 }

(* Span names are interned once, outside the timed loop. *)
let id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

let set_request t r = t.request <- r

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- extend t.name;
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent;
  t.req <- extend t.req

let with_ t nid f =
  if not t.enabled then f ()
  else begin
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- nid;
    t.parent.(i) <- t.current;
    t.req.(i) <- t.request;
    t.current <- i;
    t.start.(i) <- now ();
    match f () with
    | v ->
      t.stop.(i) <- now ();
      t.current <- t.parent.(i);
      v
    | exception e ->
      t.stop.(i) <- now ();
      t.current <- t.parent.(i);
      raise e
  end

(* Self time of every span: its duration minus the part of its interval
   that its children cover. Children are merged as intervals clipped to
   the parent, so overlapping or out-of-bounds children are never
   counted twice. [parent.(i) < i] for every non-root span (a parent is
   always opened before its children). *)
let self_times ~start ~stop ~parent =
  let n = Array.length start in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init n (fun i ->
      let lo = start.(i) and hi = stop.(i) in
      let clipped =
        List.filter_map
          (fun c ->
            let a = max lo start.(c) and b = min hi stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, lo) clipped
      in
      hi - lo - covered)

let spans t =
  let sub a = Array.sub a 0 t.len in
  (sub t.start, sub t.stop, sub t.parent)

(* Per span name: summed self time (ns) and call count, in name-id
   order. *)
let totals t =
  let start, stop, parent = spans t in
  let self = self_times ~start ~stop ~parent in
  let k = Array.length t.name_of in
  let ns = Array.make k 0 and calls = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    ns.(n) <- ns.(n) + self.(i);
    calls.(n) <- calls.(n) + 1
  done;
  List.init k (fun n -> (t.name_of.(n), ns.(n), calls.(n)))

(* Chrome trace_event "complete" events (ph = X) for the spans of the
   first [requests] updates, timestamps in microseconds from [origin].
   Perfetto and chrome://tracing nest them by interval. *)
let chrome_events t ~pid ~origin ~requests =
  let evs = ref [] in
  for i = t.len - 1 downto 0 do
    if t.req.(i) < requests then
      evs :=
        Json.Obj
          [ ("name", Json.Str t.name_of.(t.name.(i)));
            ("cat", Json.Str (List.hd (String.split_on_char '.' t.name_of.(t.name.(i)))));
            ("ph", Json.Str "X");
            ("ts", Json.Num (float_of_int (t.start.(i) - origin) /. 1e3));
            ("dur", Json.Num (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3));
            ("pid", Json.Num (float_of_int pid));
            ("tid", Json.Num 1.0);
            ("args", Json.Obj [ ("update", Json.Num (float_of_int t.req.(i))) ]) ]
        :: !evs
  done;
  !evs

let first_start t = if t.len = 0 then 0 else t.start.(0)
