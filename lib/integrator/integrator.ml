open Relational

type t = {
  semantic_filter : bool;
  schemas : string -> Schema.t;
  views : Query.View.t list;
  by_relation : (string, (int * Query.View.t) list) Hashtbl.t;
      (* base relation -> the views that use it, with their position in
         [views], ascending *)
  mutable next_id : int;
  retain_log : bool;
  mutable log : (Update.Transaction.t * string list) list;
      (* descending id; the retained update log for crash recovery *)
}

let create ?(semantic_filter = false) ?(retain_log = false) ~schemas views =
  let by_relation = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      List.iter
        (fun r ->
          let users = Option.value ~default:[] (Hashtbl.find_opt by_relation r) in
          Hashtbl.replace by_relation r ((i, v) :: users))
        (Query.View.base_relations v))
    views;
  Hashtbl.filter_map_inplace (fun _ users -> Some (List.rev users)) by_relation;
  { semantic_filter; schemas; views; by_relation; next_id = 1; retain_log;
    log = [] }

let views t = t.views

let view_names t = List.map Query.View.name t.views

(* Merge two position-ascending candidate lists, dropping duplicates. *)
let rec merge_users a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((i, _) as x) :: a', ((j, _) as y) :: b' ->
    if i < j then x :: merge_users a' b
    else if j < i then y :: merge_users a b'
    else x :: merge_users a' b'

let rel_set t txn =
  let candidates =
    List.fold_left
      (fun acc r ->
        match Hashtbl.find_opt t.by_relation r with
        | Some users -> merge_users acc users
        | None -> acc)
      [] (Update.Transaction.relations txn)
  in
  let names = List.map (fun (_, v) -> Query.View.name v) in
  if not t.semantic_filter then names candidates
  else
    let changes = Query.Delta.of_transaction txn in
    names
      (List.filter
         (fun (_, (v : Query.View.t)) ->
           not
             (Query.Irrelevance.provably_irrelevant ~schemas:t.schemas ~changes
                v.Query.View.def))
         candidates)

let ingest t txn =
  let stamped = { txn with Update.Transaction.id = t.next_id } in
  t.next_id <- t.next_id + 1;
  let rel = rel_set t stamped in
  if t.retain_log then t.log <- (stamped, rel) :: t.log;
  (stamped, rel)

let ingested t = t.next_id - 1

let log_head t = t.next_id - 1

let next_id t = t.next_id

let retained_log t = List.rev t.log

(* The newest [length log - skip] entries, ascending — what an
   incremental checkpoint wants. The log is descending, so the suffix
   (by ascending position) is a prefix here; one pass, no full rev. *)
let retained_from t ~skip =
  let take = List.length t.log - skip in
  let rec go n acc = function
    | e :: rest when n > 0 -> go (n - 1) (e :: acc) rest
    | _ -> acc
  in
  go take [] t.log

(* Crash recovery: adopt a recovered numbering position and log. [log] is
   ascending (the order a WAL yields it); the internal list is descending. *)
let restore t ~next_id ~log =
  t.next_id <- next_id;
  t.log <- List.rev log

let replay_for t ~view ~after =
  List.fold_left
    (fun acc (txn, rel) ->
      if txn.Update.Transaction.id > after && List.mem view rel then
        (txn, rel) :: acc
      else acc)
    [] t.log
(* log is descending, so the fold yields ascending id order *)

(* Shard router primitive: partition one update's relevant view set by
   the shard each view is assigned to. The fan-out is exact — a shard
   whose views are untouched never appears, so per-shard merge load
   tracks only the updates its own views care about. *)
let route_shards ~assignment rel =
  let order = ref [] in
  let buckets : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun view ->
      let s = assignment view in
      match Hashtbl.find_opt buckets s with
      | Some l -> l := view :: !l
      | None ->
        Hashtbl.add buckets s (ref [ view ]);
        order := s :: !order)
    rel;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (List.rev_map (fun s -> (s, List.rev !(Hashtbl.find buckets s))) !order)
