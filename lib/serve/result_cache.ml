open Relational

(* Algebra.t is pure first-order data (no closures), so structural
   equality and the generic hash are sound cache keys. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t

  let equal = ( = )

  let hash = Hashtbl.hash
end)

module Int_map = Map.Make (Int)

(* [snaps] maps each version the entry holds a result for to that
   result; it is never empty. [groups] is the maintenance state of the
   query's [Group_by] nodes (empty for queries without one),
   partitioning their inputs as of version [groups_at]. It has its own
   tag because it tracks every commit that touches the support, whether
   or not a snapshot is refreshed, so a result re-stored after a stale
   miss keeps it. *)
type entry = {
  mutable snaps : Bag.t Int_map.t;
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
  snapshots : int;
}

(* Per view, the versions it changed at, ascending (they are appended
   in nondecreasing order) in a growable array. *)
type change_log = { mutable at : int array; mutable len : int }

type t = {
  capacity : int;
  entries : entry Expr_tbl.t;
  insertion_order : Query.Algebra.t Queue.t;
  changes : (string, change_log) Hashtbl.t;
  mutable vm : Version_manager.t option;
      (* the version history served, once [bind] names it *)
  mutable swept_at : int;  (* watermark of the last retention sweep *)
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
    changes = Hashtbl.create 16; vm = None; swept_at = -1; hits = 0;
    misses = 0; stale = 0; evictions = 0; refreshed = 0;
    refresh_fallbacks = 0; deltas_carried = 0; deltas_diffed = 0 }

let bind t vm =
  match t.vm with
  | Some bound when bound != vm ->
    invalid_arg "Result_cache.bind: already bound to another version manager"
  | _ -> t.vm <- Some vm

let note_change t ~view ~version =
  match Hashtbl.find_opt t.changes view with
  | None -> Hashtbl.add t.changes view { at = Array.make 8 version; len = 1 }
  | Some h ->
    if h.len = Array.length h.at then begin
      let bigger = Array.make (2 * h.len) version in
      Array.blit h.at 0 bigger 0 h.len;
      h.at <- bigger
    end;
    h.at.(h.len) <- version;
    h.len <- h.len + 1

(* Did [view] change at a version in (lo, hi]? A binary search for its
   first change past [lo]. *)
let changed_between t ~view ~lo ~hi =
  lo < hi
  &&
  match Hashtbl.find_opt t.changes view with
  | None -> false
  | Some h ->
    let rec first a b =
      if a >= b then a
      else
        let m = (a + b) / 2 in
        if h.at.(m) > lo then first a m else first (m + 1) b
    in
    let i = first 0 h.len in
    i < h.len && h.at.(i) <= hi

let unchanged t entry ~lo ~hi =
  not
    (List.exists (fun view -> changed_between t ~view ~lo ~hi) entry.support)

let floor entry version =
  Int_map.find_last_opt (fun k -> k <= version) entry.snaps

(* The snapshot answering a read at [version]: the floor one (newest at
   or before it) or, for a read older than every snapshot, the oldest.
   Either answers when no support view changed in between. *)
let lookup t entry version =
  let k, result =
    match floor entry version with
    | Some snap -> snap
    | None -> Int_map.min_binding entry.snaps
  in
  if unchanged t entry ~lo:(min k version) ~hi:(max k version) then
    Some result
  else None

(* Retention follows the bound version manager: no retained version
   reads below the floor snapshot at its watermark, so every snapshot
   under that one goes. *)
let prune entry ~watermark =
  match floor entry watermark with
  | Some (k, result) when k > fst (Int_map.min_binding entry.snaps) ->
    let _, _, above = Int_map.split k entry.snaps in
    entry.snaps <- Int_map.add k result above
  | _ -> ()

let sweep t =
  match t.vm with
  | Some vm ->
    let watermark = Version_manager.watermark vm in
    if watermark <> t.swept_at then begin
      t.swept_at <- watermark;
      Expr_tbl.iter (fun _ entry -> prune entry ~watermark) t.entries
    end
  | None -> ()

let peek t ~version expr =
  sweep t;
  match Expr_tbl.find_opt t.entries expr with
  | None -> false
  | Some entry -> Option.is_some (lookup t entry version)

let find t ~version expr =
  sweep t;
  match Expr_tbl.find_opt t.entries expr with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some entry -> (
    match lookup t entry version with
    | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
    | None ->
      t.misses <- t.misses + 1;
      t.stale <- t.stale + 1;
      None)

let store t ~version ~support expr result =
  sweep t;
  match Expr_tbl.find_opt t.entries expr with
  | Some entry -> entry.snaps <- Int_map.add version result entry.snaps
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
      { snaps = Int_map.singleton version result; support;
        groups = Query.Compiled.no_groups; groups_at = version };
    Queue.push expr t.insertion_order

(* Incremental refresh on commit. An entry whose support intersects
   [changed] and which has a snapshot valid at the pre-commit version
   [version - 1] gains a snapshot at [version], built from that one when
   the commit's view deltas are no wider than it: the deltas go through
   the compiled delta plan of the cached query and [Signed_bag.apply]
   is exact here (the snapshot is bit-for-bit the pre-state result and
   the delta is exact), so a refreshed snapshot is indistinguishable
   from a recompute. Wider deltas would churn more than recomputation
   saves; such entries gain nothing, and reads past the commit miss. A
   [Base] query's snapshot is the post-state view's own bag, taken by
   pointer so it shares the store's map nodes. The older snapshots stay
   for reads pinned before the commit.

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
  sweep t;
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
        let from =
          match floor entry prev with
          | Some (k, result) when unchanged t entry ~lo:k ~hi:prev ->
            if width touched <= Bag.cardinal result then Some result
            else begin
              t.refresh_fallbacks <- t.refresh_fallbacks + 1;
              None
            end
          | _ -> None
        in
        let changes () =
          Query.Delta.changes_of_list
            (List.map (fun v -> (v, view_delta v)) touched)
        in
        let snapshot =
          match expr with
          | Query.Algebra.Base view ->
            Option.map (fun _ -> Relation.contents (Database.find post view)) from
          | _ ->
            let plan =
              Query.Compiled.compile_memo ~lookup:(Database.schema pre) expr
            in
            if Query.Compiled.has_group_by plan then begin
              if not (unchanged t entry ~lo:entry.groups_at ~hi:prev) then
                entry.groups <- Query.Compiled.drop_groups entry.groups;
              let d, groups =
                Query.Delta.step ~pre ~groups:entry.groups (changes ()) plan
              in
              entry.groups <- groups;
              entry.groups_at <- version;
              Option.map (Signed_bag.apply d) from
            end
            else
              Option.map
                (fun result ->
                  Signed_bag.apply
                    (Query.Delta.eval_plan ~pre (changes ()) plan)
                    result)
                from
        in
        Option.iter
          (fun result ->
            entry.snaps <- Int_map.add version result entry.snaps;
            t.refreshed <- t.refreshed + 1)
          snapshot
      end)
    t.entries;
  List.iter (fun view -> note_change t ~view ~version) changed

(* Warehouse crash: cached results and the change history both describe a
   version sequence about to be republished from scratch, so both must
   go. Keeping either would let a stale entry validate against a
   half-rebuilt history. Statistics survive (they describe the run), and
   so does the binding: recovery restarts the same version manager. *)
let clear t =
  Expr_tbl.iter
    (fun _ entry -> entry.groups <- Query.Compiled.drop_groups entry.groups)
    t.entries;
  Expr_tbl.reset t.entries;
  Queue.clear t.insertion_order;
  Hashtbl.reset t.changes

let snapshot_count t expr =
  sweep t;
  match Expr_tbl.find_opt t.entries expr with
  | Some entry -> Int_map.cardinal entry.snaps
  | None -> 0

let stats t =
  sweep t;
  { hits = t.hits; misses = t.misses; stale = t.stale;
    evictions = t.evictions; entries = Expr_tbl.length t.entries;
    refreshed = t.refreshed; refresh_fallbacks = t.refresh_fallbacks;
    deltas_carried = t.deltas_carried; deltas_diffed = t.deltas_diffed;
    snapshots =
      Expr_tbl.fold
        (fun _ entry acc -> acc + Int_map.cardinal entry.snaps)
        t.entries 0 }
