open Relational

type commit = { time : float; transaction : Wt.t; state : Database.t }

type retention = Keep_all | Keep_last of int

(* Retained commits live in [buf.(start) .. buf.(start + len - 1)], oldest
   first, times nondecreasing (the simulator's clock never runs backwards;
   equal times are legal and resolved latest-wins by the binary search).
   [pruned] counts commits discarded below the retention watermark, so the
   global commit index of buf.(start + i) is pruned + i + 1 (index 0 being
   the initial state). *)
type t = {
  initial : Database.t;
  mutable current : Database.t;
  mutable buf : commit option array;
  mutable start : int;
  mutable len : int;
  mutable pruned : int;
  retention : retention;
}

exception Unknown_view of string

exception Pruned of float

let create ?(retention = Keep_all) bindings =
  (match retention with
  | Keep_last n when n < 1 ->
    invalid_arg "Store.create: Keep_last needs a positive window"
  | Keep_last _ | Keep_all -> ());
  let db = Database.of_list bindings in
  { initial = db; current = db; buf = Array.make 16 None; start = 0; len = 0;
    pruned = 0; retention }

let retention t = t.retention

let views t = Database.names t.current

let view t name =
  match Database.find_opt t.current name with
  | Some rel -> rel
  | None -> raise (Unknown_view name)

let snapshot t = t.current

let initial t = t.initial

let nth t i =
  match t.buf.(t.start + i) with
  | Some c -> c
  | None -> assert false

let commit_count t = t.pruned + t.len

let watermark t = t.pruned

let retained t = t.len

(* Make room for one more commit at the tail: grow (and compact away the
   pruned prefix) when the physical buffer is exhausted. *)
let ensure_room t =
  if t.start + t.len = Array.length t.buf then begin
    let cap = max 16 (2 * t.len) in
    let buf = Array.make cap None in
    Array.blit t.buf t.start buf 0 t.len;
    t.buf <- buf;
    t.start <- 0
  end

let prune t =
  match t.retention with
  | Keep_all -> ()
  | Keep_last n ->
    while t.len > n do
      t.buf.(t.start) <- None;
      t.start <- t.start + 1;
      t.len <- t.len - 1;
      t.pruned <- t.pruned + 1
    done

(* ---- merge fast path: batched run application ----

   A ready run of warehouse transactions is planned as a whole: the
   per-view action lists of each transaction are summed (opposing deltas
   cancel) and each view's post-state timeline is computed in a single
   in-order walk, independent per view — so the per-view walks can be
   fanned across a domain pool via [run_tasks]. The plan then installs
   the same per-WT state sequence the one-at-a-time [apply] would have
   produced: views untouched by a transaction share their relation (and
   its memoized chunks/indexes) by pointer, and summing is guarded by
   {!Signed_bag.coalesce} so a sum that clamping could make unfaithful
   falls back to sequential application of that group. Planning costs
   O(|delta| log n) per touched view: a summed version is built by
   [Relation.apply_delta], which records the delta on it for serving
   to read back, and no chunk is encoded (chunks are built on first
   kernel use and shared by pointer from then on). *)

type run_plan = {
  planned : (Wt.t * Database.t) list;
  coalesced_in : int;
  coalesced_out : int;
  seq_fallbacks : int;
}

let plan_run ?(run_tasks = List.iter (fun task -> task ())) t wts =
  let wts = Array.of_list wts in
  let n = Array.length wts in
  (* Per view, the transactions that touch it, with the view's action
     lists of each transaction in application order. *)
  let order = ref [] in
  let groups : (string, (int * Query.Action_list.t list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun i (wt : Wt.t) ->
      List.iter
        (fun (al : Query.Action_list.t) ->
          let cell =
            match Hashtbl.find_opt groups al.view with
            | Some cell -> cell
            | None ->
              let cell = ref [] in
              Hashtbl.add groups al.view cell;
              order := al.view :: !order;
              cell
          in
          match !cell with
          | (j, als) :: rest when j = i -> cell := (j, al :: als) :: rest
          | _ -> cell := (i, [ al ]) :: !cell)
        wt.actions)
    wts;
  let views = Array.of_list (List.rev !order) in
  let n_views = Array.length views in
  let timelines = Array.make n_views [] in
  let c_in = Array.make n_views 0 in
  let c_out = Array.make n_views 0 in
  let fallbacks = Array.make n_views 0 in
  let plan_view v =
    let name = views.(v) in
    let rel0 =
      match Database.find_opt t.current name with
      | Some rel -> rel
      | None -> raise (Unknown_view name)
    in
    let vgroups =
      List.rev_map (fun (i, als) -> (i, List.rev als)) !(Hashtbl.find groups name)
    in
    let rel = ref rel0 in
    let timeline =
      List.map
        (fun (i, als) ->
          let contents = Relation.contents !rel in
          let deltas =
            List.filter_map
              (fun (al : Query.Action_list.t) ->
                match al.payload with
                | Query.Action_list.Delta d -> Some d
                | Query.Action_list.Refresh _ -> None)
              als
          in
          rel :=
            if List.length deltas <> List.length als then
              (* A refresh overwrites rather than composes: apply the
                 group one list at a time. *)
              Relation.with_contents !rel
                (List.fold_left
                   (fun acc al -> Query.Action_list.apply al acc)
                   contents als)
            else begin
              List.iter
                (fun d -> c_in.(v) <- c_in.(v) + Signed_bag.size d)
                deltas;
              match Signed_bag.coalesce deltas ~bag:contents with
              | Some net ->
                c_out.(v) <- c_out.(v) + Signed_bag.size net;
                (* The version carries [net] when it applies exactly. *)
                Relation.apply_delta net !rel
              | None ->
                (* The sum could clamp differently from the sequence —
                   stay faithful. *)
                fallbacks.(v) <- fallbacks.(v) + 1;
                c_out.(v)
                <- c_out.(v)
                   + List.fold_left
                       (fun acc d -> acc + Signed_bag.size d)
                       0 deltas;
                Relation.with_contents !rel
                  (List.fold_left
                     (fun acc d -> Signed_bag.apply d acc)
                     contents deltas)
            end;
          (i, !rel))
        vgroups
    in
    timelines.(v) <- timeline
  in
  run_tasks (List.init n_views (fun v () -> plan_view v));
  (* Scatter the per-view timelines back into per-transaction updates and
     roll the database forward once per transaction. *)
  let updates = Array.make n [] in
  Array.iteri
    (fun v timeline ->
      List.iter
        (fun (i, rel) -> updates.(i) <- (views.(v), rel) :: updates.(i))
        timeline)
    timelines;
  let planned = ref [] in
  let db = ref t.current in
  Array.iteri
    (fun i (wt : Wt.t) ->
      db :=
        List.fold_left
          (fun acc (name, rel) -> Database.add name rel acc)
          !db
          (List.rev updates.(i));
      planned := (wt, !db) :: !planned)
    wts;
  { planned = List.rev !planned;
    coalesced_in = Array.fold_left ( + ) 0 c_in;
    coalesced_out = Array.fold_left ( + ) 0 c_out;
    seq_fallbacks = Array.fold_left ( + ) 0 fallbacks }

let apply_planned t ?(time = 0.0) (wt : Wt.t) state =
  t.current <- state;
  ensure_room t;
  t.buf.(t.start + t.len) <- Some { time; transaction = wt; state };
  t.len <- t.len + 1;
  prune t

(* One transaction is a run of one: its action lists on a view are
   summed like a run's, so the new version carries the net delta. *)
let apply t ?time wt =
  match (plan_run t [ wt ]).planned with
  | [ (wt, state) ] -> apply_planned t ?time wt state
  | _ -> assert false

let commit_run t ?time wts =
  let plan = plan_run t wts in
  List.iter (fun (wt, state) -> apply_planned t ?time wt state) plan.planned;
  plan

let commits t = List.init t.len (fun i -> nth t i)

let commits_from t i =
  let local = max 0 (i - t.pruned) in
  List.init (t.len - local) (fun k -> nth t (local + k))

(* Crash recovery: rebuild the whole store from the initial state and the
   recovered (time, transaction) sequence. Re-applying rather than
   restoring snapshots keeps the durable record minimal (the WAL holds
   transactions, not state vectors) and reproduces byte-identical state
   because apply is deterministic. *)
let restore t cs =
  t.current <- t.initial;
  t.buf <- Array.make 16 None;
  t.start <- 0;
  t.len <- 0;
  t.pruned <- 0;
  List.iter (fun (time, wt) -> apply t ~time wt) cs

let states t = t.initial :: List.init t.len (fun i -> (nth t i).state)

(* Rightmost retained commit with time <= query. Several commits may share
   a simulated time (e.g. an All_at_once script); the binary search keeps
   moving right past equal times, so the latest of them wins. *)
let as_of_index t time =
  if t.len = 0 || (nth t 0).time > time then None
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    (* invariant: (nth lo).time <= time; answer is in [lo, hi] *)
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if (nth t mid).time <= time then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let as_of t time =
  match as_of_index t time with
  | Some i -> (nth t i).state
  | None ->
    (* Nothing retained at or before [time]: before any commit that is
       ws_0, but once commits have been pruned the state at [time] is no
       longer recorded. *)
    if t.pruned = 0 then t.initial else raise (Pruned time)
