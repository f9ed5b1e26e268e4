open Relational

type version = {
  index : int;
  time : float;
  state : Database.t;
  changed : string list;
}

type retention = Keep_all | Keep_last of int

exception Pruned of int

(* Retained versions are contiguous: buf.(start + i) holds the version
   with index watermark + i. Pins block the watermark — pruning stops at
   the first pinned version so the retained window stays contiguous and
   binary-searchable (leases are read-length, so the blockage is brief). *)
type t = {
  mutable buf : version option array;
  mutable start : int;
  mutable len : int;
  mutable watermark : int;
  retention : retention;
  pins : (int, int) Hashtbl.t;  (* version index -> lease count *)
}

let create ?(retention = Keep_all) initial =
  (match retention with
  | Keep_last n when n < 1 ->
    invalid_arg "Version_manager.create: Keep_last needs a positive window"
  | Keep_last _ | Keep_all -> ());
  let t =
    { buf = Array.make 16 None; start = 0; len = 0; watermark = 0; retention;
      pins = Hashtbl.create 16 }
  in
  t.buf.(0) <- Some { index = 0; time = 0.0; state = initial; changed = [] };
  t.len <- 1;
  t

let nth t i =
  match t.buf.(t.start + i) with Some v -> v | None -> assert false

let latest t = nth t (t.len - 1)

let version_count t = t.watermark + t.len

let watermark t = t.watermark

let retained t = t.len

let pinned t = Hashtbl.length t.pins

let oldest_live t = nth t 0

let prune t =
  match t.retention with
  | Keep_all -> ()
  | Keep_last n ->
    let continue = ref true in
    while !continue && t.len > n do
      if Hashtbl.mem t.pins t.watermark then continue := false
      else begin
        t.buf.(t.start) <- None;
        t.start <- t.start + 1;
        t.len <- t.len - 1;
        t.watermark <- t.watermark + 1
      end
    done

let ensure_room t =
  if t.start + t.len = Array.length t.buf then begin
    let cap = max 16 (2 * t.len) in
    let buf = Array.make cap None in
    Array.blit t.buf t.start buf 0 t.len;
    t.buf <- buf;
    t.start <- 0
  end

let publish t ~time ~changed state =
  if time < (latest t).time then
    invalid_arg "Version_manager.publish: time ran backwards";
  let v = { index = version_count t; time; state; changed } in
  ensure_room t;
  t.buf.(t.start + t.len) <- Some v;
  t.len <- t.len + 1;
  prune t;
  v

(* Warehouse crash: forget the published history and restart at version 0.
   Recovery then republishes the restored commit sequence, reproducing
   each version at its original index. The pins table survives — versions
   are persistent snapshots, so leases taken by in-flight readers remain
   valid, and republished versions land back at the indices those leases
   name. *)
let restart t ~initial =
  t.buf <- Array.make 16 None;
  t.start <- 0;
  t.watermark <- 0;
  t.buf.(0) <- Some { index = 0; time = 0.0; state = initial; changed = [] };
  t.len <- 1

let find t index =
  if index < t.watermark then raise (Pruned index)
  else if index >= version_count t then
    invalid_arg "Version_manager.find: version not yet published"
  else nth t (index - t.watermark)

(* Rightmost retained version with time <= instant; equal times resolve
   to the highest index. *)
let as_of t instant =
  if (oldest_live t).time > instant then
    (* Version 0 carries time 0; an instant before the oldest retained
       version either predates the whole history (serve version 0) or
       falls into pruned territory. *)
    if t.watermark = 0 then oldest_live t else raise (Pruned (t.watermark - 1))
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if (nth t mid).time <= instant then lo := mid else hi := mid - 1
    done;
    nth t !lo
  end

(* Leftmost retained version with time >= instant, else the latest. *)
let oldest_at_least t instant =
  if (latest t).time < instant then latest t
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if (nth t mid).time >= instant then hi := mid else lo := mid + 1
    done;
    nth t !lo
  end

type chunk_stats = { slots : int; distinct : int }

(* Walk every (retained version, relation) slot and count how many
   physically distinct chunks back them. Forces any not-yet-encoded
   chunk, but only once per distinct relation record — the whole point
   being that [slots / distinct] measures how much storage MVCC
   retention shares. *)
let chunk_stats t =
  let seen = ref [] and slots = ref 0 in
  for i = 0 to t.len - 1 do
    let v = nth t i in
    List.iter
      (fun name ->
        let c = Relation.columnar (Database.find v.state name) in
        incr slots;
        if not (List.memq c !seen) then seen := c :: !seen)
      (Database.names v.state)
  done;
  { slots = !slots; distinct = List.length !seen }

let pin t index =
  let v = find t index in
  Hashtbl.replace t.pins index
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins index));
  v

let unpin t index =
  match Hashtbl.find_opt t.pins index with
  | None -> invalid_arg "Version_manager.unpin: version not pinned"
  | Some 1 ->
    Hashtbl.remove t.pins index;
    prune t
  | Some n -> Hashtbl.replace t.pins index (n - 1)

let pin_latest t = pin t (latest t).index
