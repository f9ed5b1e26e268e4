open Relational

(* Algebra.t is pure first-order data (no closures), so structural
   equality and the generic hash are sound cache keys. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t

  let equal = ( = )

  let hash = Hashtbl.hash
end)

(* [groups] is the maintenance state of the query's [Group_by] nodes
   (empty for queries without one), partitioning their inputs as of
   version [groups_at]. It has its own tag because it tracks every
   commit that touches the support, whether or not [result] is
   refreshed, so a result re-stored after a stale miss keeps it. *)
type entry = {
  mutable result : Bag.t;
  mutable computed_at : int;
  support : string list;
  mutable groups : Query.Compiled.groups;
  mutable groups_at : int;
}

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  entries : int;
  refreshed : int;
  refresh_fallbacks : int;
  deltas_carried : int;
  deltas_diffed : int;
}

type t = {
  capacity : int;
  entries : entry Expr_tbl.t;
  insertion_order : Query.Algebra.t Queue.t;
  changes : (string, int list ref) Hashtbl.t;
      (* per view, change versions newest first (appended nondecreasing) *)
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable refreshed : int;
  mutable refresh_fallbacks : int;
  mutable deltas_carried : int;
  mutable deltas_diffed : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity < 1";
  { capacity; entries = Expr_tbl.create 64; insertion_order = Queue.create ();
    changes = Hashtbl.create 16; hits = 0; misses = 0; stale = 0;
    evictions = 0; refreshed = 0; refresh_fallbacks = 0; deltas_carried = 0;
    deltas_diffed = 0 }

let note_change t ~view ~version =
  match Hashtbl.find_opt t.changes view with
  | Some l -> l := version :: !l
  | None -> Hashtbl.add t.changes view (ref [ version ])

(* Did [view] change at a version in (lo, hi]? The newest-first list is
   scanned from its head; versions at the head are the most recent, so
   the scan stops as soon as it falls to or below [lo]. Reads cluster
   near the head (sessions read at or near the latest version), keeping
   this effectively O(1) per support view. *)
let changed_between t ~view ~lo ~hi =
  match Hashtbl.find_opt t.changes view with
  | None -> false
  | Some l ->
    let rec scan = function
      | [] -> false
      | v :: rest -> if v <= lo then false else v <= hi || scan rest
    in
    scan !l

let valid_at t entry version =
  let lo = min entry.computed_at version
  and hi = max entry.computed_at version in
  not
    (List.exists
       (fun view -> changed_between t ~view ~lo ~hi)
       entry.support)

let peek t ~version expr =
  match Expr_tbl.find_opt t.entries expr with
  | None -> false
  | Some entry -> valid_at t entry version

let find t ~version expr =
  match Expr_tbl.find_opt t.entries expr with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some entry ->
    if valid_at t entry version then begin
      t.hits <- t.hits + 1;
      Some entry.result
    end
    else begin
      t.misses <- t.misses + 1;
      t.stale <- t.stale + 1;
      None
    end

let store t ~version ~support expr result =
  match Expr_tbl.find_opt t.entries expr with
  | Some entry ->
    entry.result <- result;
    entry.computed_at <- version
  | None ->
    if Expr_tbl.length t.entries >= t.capacity then begin
      (* Evict the oldest-inserted surviving entry. *)
      let rec evict () =
        let key = Queue.pop t.insertion_order in
        match Expr_tbl.find_opt t.entries key with
        | Some entry ->
          entry.groups <- Query.Compiled.drop_groups entry.groups;
          Expr_tbl.remove t.entries key;
          t.evictions <- t.evictions + 1
        | None -> evict ()
      in
      evict ()
    end;
    Expr_tbl.replace t.entries expr
      { result; computed_at = version; support;
        groups = Query.Compiled.no_groups; groups_at = version };
    Queue.push expr t.insertion_order

(* Incremental refresh on commit. An entry valid at the pre-commit
   version [version - 1] whose support intersects [changed] would be
   invalidated by the change notes; instead, when the commit's view
   deltas are estimated no wider than the cached result, push them
   through the compiled delta plan of the cached query and advance the
   entry to [version] in place. [Signed_bag.apply] is exact here — the
   entry is bit-for-bit the pre-state result and the delta is exact —
   so a refreshed entry stays indistinguishable from a recompute.
   Entries wider deltas would churn more than recomputation saves fall
   back to plain invalidation (they simply keep their old computed_at
   and fail validity checks spanning this commit).

   Each view's delta is the one its post-state version carries
   ([Relation.delta_since]): the store builds versions from the
   commit's own deltas, so this is O(|delta|). Only a version that
   carries none (a refresh list, a clamp fallback, a state built some
   other way) is diffed against its pre-state.

   A query with a [Group_by] advances its group state on every commit
   that touches its support, refreshed or not, so the state is built
   once and then costs O(|delta|) per commit. It is dropped only when
   its support changed at a version this cache never saw as a commit
   (the state no longer describes [pre]). *)
let commit t ~version ~changed ~pre ~post =
  let delta_cache = Hashtbl.create 8 in
  let view_delta view =
    match Hashtbl.find_opt delta_cache view with
    | Some d -> d
    | None ->
      let before = Database.find pre view and after = Database.find post view in
      let d =
        match Relation.delta_since ~pre:before after with
        | Some d ->
          t.deltas_carried <- t.deltas_carried + 1;
          d
        | None ->
          t.deltas_diffed <- t.deltas_diffed + 1;
          Signed_bag.diff_of_bags ~before:(Relation.contents before)
            ~after:(Relation.contents after)
      in
      Hashtbl.add delta_cache view d;
      d
  in
  let prev = version - 1 in
  let width views =
    List.fold_left (fun acc v -> acc + Signed_bag.size (view_delta v)) 0 views
  in
  Expr_tbl.iter
    (fun expr entry ->
      let touched = List.filter (fun v -> List.mem v entry.support) changed in
      if touched <> [] then begin
        let valid = entry.computed_at <= prev && valid_at t entry prev in
        let refresh = valid && width touched <= Bag.cardinal entry.result in
        if valid && not refresh then
          t.refresh_fallbacks <- t.refresh_fallbacks + 1;
        let plan =
          Query.Compiled.compile_memo ~lookup:(Database.schema pre) expr
        in
        let stateful = Query.Compiled.has_group_by plan in
        if refresh || stateful then begin
          let changes =
            Query.Delta.changes_of_list
              (List.map (fun v -> (v, view_delta v)) touched)
          in
          let d =
            if stateful then begin
              if
                List.exists
                  (fun view ->
                    changed_between t ~view ~lo:entry.groups_at ~hi:prev)
                  entry.support
              then entry.groups <- Query.Compiled.drop_groups entry.groups;
              let d, groups =
                Query.Delta.step ~pre ~groups:entry.groups changes plan
              in
              entry.groups <- groups;
              entry.groups_at <- version;
              d
            end
            else Query.Delta.eval_plan ~pre changes plan
          in
          if refresh then begin
            entry.result <- Signed_bag.apply d entry.result;
            entry.computed_at <- version;
            t.refreshed <- t.refreshed + 1
          end
        end
      end)
    t.entries;
  List.iter (fun view -> note_change t ~view ~version) changed

(* Warehouse crash: cached results and the change history both describe a
   version sequence about to be republished from scratch, so both must
   go. Keeping either would let a stale entry validate against a
   half-rebuilt history. Statistics survive (they describe the run). *)
let clear t =
  Expr_tbl.iter
    (fun _ entry -> entry.groups <- Query.Compiled.drop_groups entry.groups)
    t.entries;
  Expr_tbl.reset t.entries;
  Queue.clear t.insertion_order;
  Hashtbl.reset t.changes

let stats t =
  { hits = t.hits; misses = t.misses; stale = t.stale;
    evictions = t.evictions; entries = Expr_tbl.length t.entries;
    refreshed = t.refreshed; refresh_fallbacks = t.refresh_fallbacks;
    deltas_carried = t.deltas_carried; deltas_diffed = t.deltas_diffed }
