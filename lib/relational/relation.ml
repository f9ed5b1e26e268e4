(* A relation instance. Alongside the boxed bag, a relation memoizes its
   columnar snapshot and per-key-position hash indexes: the compiled
   kernels ask for them on every evaluation/delta over a pre-state, so a
   base relation is encoded (and indexed) at most once per version
   instead of once per view per transaction. The memo fields are
   mutable but the relation value stays observably immutable — every
   content-changing operation builds a fresh record with empty memos,
   and an empty delta returns the same record, so MVCC versions that
   retain an unchanged relation share its chunks and indexes by
   pointer. Two pool domains may fill the columnar memo at once: both
   compute the same deterministic snapshot and one single-word write
   wins. An index is installed under a lock that re-checks the list, so
   a key position gets one entry and one counted build; a domain that
   loses the race uses the winner's index.

   A version built by [apply_delta] also remembers where it came from:
   its parent's contents and the delta that produced it, recorded only
   when the delta applied without clamping, so [parent + delta] is
   exactly this version's contents. Keeping the parent's bag rather
   than the parent record holds one level, never a chain: the bag is
   persistent and shares all but O(|delta| log n) nodes with this
   version's contents.

   A version built by [derive] — a maintenance cache's next state —
   instead carries its parent's indexes, each derived in O(|delta|)
   (Bag_index.derive), so the delta rules' first probe after a change
   finds an index instead of rebuilding one over the whole relation. *)

type t = {
  schema : Schema.t;
  contents : Bag.t;
  origin : (Bag.t * Signed_bag.t) option;
  mutable col : Columnar.t option;
  mutable idxs : (int array * Bag_index.t) list;
}

exception Type_error of string

let make ?origin schema contents =
  { schema; contents; origin; col = None; idxs = [] }

let create schema = make schema Bag.empty

let check_tuple schema tup =
  if not (Tuple.conforms schema tup) then
    raise
      (Type_error
         (Fmt.str "tuple %a does not conform to schema %a" Tuple.pp tup
            Schema.pp schema))

let of_tuples schema tuples =
  List.iter (check_tuple schema) tuples;
  make schema (Bag.of_list tuples)

let schema t = t.schema

let contents t = t.contents

let with_contents t contents =
  if contents == t.contents then t else make t.schema contents

let insert ?count tup t =
  check_tuple t.schema tup;
  make t.schema (Bag.add ?count tup t.contents)

let delete ?count tup t = make t.schema (Bag.remove ?count tup t.contents)

let apply_delta delta t =
  (* Empty-delta fast path: same record, memos (chunks, indexes) kept. *)
  if Signed_bag.is_zero delta then t
  else
    let origin =
      if Signed_bag.applies_exactly delta t.contents then
        Some (t.contents, delta)
      else None
    in
    make ?origin t.schema (Signed_bag.apply delta t.contents)

let derived_counter = Atomic.make 0

let builds_counter = Atomic.make 0

let index_derived () = Atomic.get derived_counter

let index_builds () = Atomic.get builds_counter

let derive delta t =
  if Signed_bag.is_zero delta then t
  else
    let child = make t.schema (Signed_bag.apply delta t.contents) in
    match t.idxs with
    | [] -> child
    | idxs ->
      ignore (Atomic.fetch_and_add derived_counter (List.length idxs));
      child.idxs <-
        List.map (fun (kp, idx) -> (kp, Bag_index.derive idx delta)) idxs;
      child

let contents_only t =
  if Option.is_none t.origin && Option.is_none t.col && t.idxs = [] then t
  else make t.schema t.contents

let delta_since ~pre post =
  if post.contents == pre.contents then Some Signed_bag.zero
  else
    match post.origin with
    | Some (parent, delta) when parent == pre.contents -> Some delta
    | Some _ | None -> None

let columnar t =
  match t.col with
  | Some c -> c
  | None ->
    let c = Columnar.of_bag ~arity:(Schema.arity t.schema) t.contents in
    t.col <- Some c;
    c

let install_lock = Mutex.create ()

let index t ~key_pos =
  let rec lookup = function
    | [] -> None
    | (kp, idx) :: rest -> if kp = key_pos then Some idx else lookup rest
  in
  match lookup t.idxs with
  | Some idx -> idx
  | None ->
    let idx = Bag_index.of_bag ~key_pos t.contents in
    Mutex.protect install_lock (fun () ->
        match lookup t.idxs with
        | Some winner -> winner
        | None ->
          Atomic.incr builds_counter;
          t.idxs <- (key_pos, idx) :: t.idxs;
          idx)

let index_stats t = List.map (fun (_, idx) -> Bag_index.occupancy idx) t.idxs

let cardinal t = Bag.cardinal t.contents

let is_empty t = Bag.is_empty t.contents

let mem t tup = Bag.mem t.contents tup

let count t tup = Bag.count t.contents tup

let tuples t = Bag.to_list t.contents

let equal a b = Schema.equal a.schema b.schema && Bag.equal a.contents b.contents

let equal_contents a b = Bag.equal a.contents b.contents

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@ %a@]" Schema.pp t.schema Bag.pp t.contents

let to_string t = Fmt.str "%a" pp t
