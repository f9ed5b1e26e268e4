open Relational

(* Compiled query plans: every attribute name in an algebra expression is
   resolved to an integer position exactly once, at compile time. Evaluation
   and delta computation then run purely positionally — array indexing, hash
   probes — instead of searching schema name lists per tuple. Joins carry
   precomputed key positions for both sides plus the positions of the right
   side's non-shared columns, so a joined output tuple is one [Array.append]
   and key extraction is one [Tuple.project_pos]. *)

type operand = O_pos of int | O_const of Value.t

type pred =
  | P_true
  | P_false
  | P_cmp of Pred.cmp * operand * operand
  | P_and of pred * pred
  | P_or of pred * pred
  | P_not of pred

type agg =
  | A_count
  | A_sum of int
  | A_avg of int
  | A_min of int
  | A_max of int

type t = { node : node; schema : Schema.t }

and node =
  | Base of string
  | Select of pred * t
  | Project of int array * t
  | Join of join
  | Union of t * t
  | Group_by of group

and join = {
  left : t;
  right : t;
  key_left : int array;  (* shared-attribute positions in the left schema *)
  key_right : int array; (* same attributes, positions in the right schema *)
  right_extra : int array; (* right-side positions of non-shared columns *)
}

and group = {
  input : t;
  key_pos : int array;
  aggs : agg array;
  slot : int; (* this node's key in a plan's [groups] state *)
}

let schema t = t.schema

(* Predicate compilation: attribute operands become positions. *)

let compile_operand schema = function
  | Pred.Attr name -> O_pos (Schema.index_of schema name)
  | Pred.Const v -> O_const v

let rec compile_pred schema (p : Pred.t) =
  match p with
  | Pred.True -> P_true
  | Pred.False -> P_false
  | Pred.Cmp (cmp, x, y) ->
    P_cmp (cmp, compile_operand schema x, compile_operand schema y)
  | Pred.And (a, b) -> P_and (compile_pred schema a, compile_pred schema b)
  | Pred.Or (a, b) -> P_or (compile_pred schema a, compile_pred schema b)
  | Pred.Not a -> P_not (compile_pred schema a)

let operand_value tup = function O_pos i -> Tuple.get tup i | O_const v -> v

let rec eval_pred p tup =
  match p with
  | P_true -> true
  | P_false -> false
  | P_cmp (cmp, x, y) ->
    Pred.cmp_holds cmp (operand_value tup x) (operand_value tup y)
  | P_and (a, b) -> eval_pred a tup && eval_pred b tup
  | P_or (a, b) -> eval_pred a tup || eval_pred b tup
  | P_not a -> not (eval_pred a tup)

(* Plan compilation. [Rename] changes only the schema, never the tuples, so
   it compiles away entirely: the renamed schema propagates upward and the
   child plan is used directly. Each [Group_by] node gets the next slot
   number, its key in the plan's persistent group state. *)

let rec compile_from ~slots ~lookup (expr : Algebra.t) =
  let compile = compile_from ~slots in
  match expr with
  | Algebra.Base name -> { node = Base name; schema = lookup name }
  | Algebra.Select (pred, e) ->
    let child = compile ~lookup e in
    (* Resolve every predicate attribute now: ill-typed view definitions
       fail at compile time, matching Algebra.schema_of. *)
    { node = Select (compile_pred child.schema pred, child);
      schema = child.schema }
  | Algebra.Project (names, e) ->
    let child = compile ~lookup e in
    { node = Project (Schema.positions child.schema names, child);
      schema = Schema.project child.schema names }
  | Algebra.Join (a, b) ->
    let left = compile ~lookup a and right = compile ~lookup b in
    let shared = Schema.common left.schema right.schema in
    let schema = Schema.join left.schema right.schema in
    let right_extra =
      Schema.positions right.schema
        (List.filter
           (fun n -> not (Schema.mem left.schema n))
           (Schema.names right.schema))
    in
    { node =
        Join
          { left; right;
            key_left = Schema.positions left.schema shared;
            key_right = Schema.positions right.schema shared;
            right_extra };
      schema }
  | Algebra.Union (a, b) ->
    let left = compile ~lookup a and right = compile ~lookup b in
    if not (Schema.equal left.schema right.schema) then
      invalid_arg "Algebra.schema_of: union of incompatible schemas";
    { node = Union (left, right); schema = left.schema }
  | Algebra.Rename (mapping, e) ->
    let child = compile ~lookup e in
    { child with schema = Schema.rename child.schema mapping }
  | Algebra.Group_by { keys; aggregates; input } ->
    let child = compile ~lookup input in
    let key_attrs =
      List.map (fun k -> (k, Schema.type_of child.schema k)) keys
    in
    let agg_attr (name, agg) =
      let ty =
        match (agg : Algebra.aggregate) with
        | Algebra.Count -> Value.Int_ty
        | Algebra.Sum a | Algebra.Min a | Algebra.Max a ->
          Schema.type_of child.schema a
        | Algebra.Avg _ -> Value.Float_ty
      in
      (name, ty)
    in
    let out_schema = Schema.make (key_attrs @ List.map agg_attr aggregates) in
    let agg_of (_, a) =
      match (a : Algebra.aggregate) with
      | Algebra.Count -> A_count
      | Algebra.Sum n -> A_sum (Schema.index_of child.schema n)
      | Algebra.Avg n -> A_avg (Schema.index_of child.schema n)
      | Algebra.Min n -> A_min (Schema.index_of child.schema n)
      | Algebra.Max n -> A_max (Schema.index_of child.schema n)
    in
    let slot = !slots in
    incr slots;
    { node =
        Group_by
          { input = child;
            key_pos = Schema.positions child.schema keys;
            aggs = Array.of_list (List.map agg_of aggregates);
            slot };
      schema = out_schema }

let compile ~lookup expr = compile_from ~slots:(ref 0) ~lookup expr

(* ------------------------------------------------------------------ *)
(* Aggregate kernels (shared with the interpreted reference path).    *)

let add_values a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | Value.Float x, Value.Float y -> Value.Float (x +. y)
  | Value.Int x, Value.Float y | Value.Float y, Value.Int x ->
    Value.Float (float_of_int x +. y)
  | (Value.Bool _ | Value.String _), _ | _, (Value.Bool _ | Value.String _) ->
    raise (Relation.Type_error "sum over non-numeric attribute")

let scale_value n = function
  | Value.Null -> Value.Null
  | Value.Int x -> Value.Int (n * x)
  | Value.Float x -> Value.Float (float_of_int n *. x)
  | Value.Bool _ | Value.String _ ->
    raise (Relation.Type_error "sum over non-numeric attribute")

let to_float = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | Value.Null | Value.Bool _ | Value.String _ ->
    raise (Relation.Type_error "avg over non-numeric attribute")

let aggregate_group ~input_schema ~group ~key contents =
  let { Algebra.keys; aggregates; input = _ } = group in
  let non_null attr f init =
    Bag.fold
      (fun tup n acc ->
        match Tuple.field input_schema tup attr with
        | Value.Null -> acc
        | v -> f v n acc)
      contents init
  in
  let compute = function
    | Algebra.Count -> Value.Int (Bag.cardinal contents)
    | Algebra.Sum attr ->
      non_null attr (fun v n acc -> add_values acc (scale_value n v)) Value.Null
    | Algebra.Avg attr ->
      let total, count =
        non_null attr
          (fun v n (total, count) ->
            (total +. (float_of_int n *. to_float v), count + n))
          (0.0, 0)
      in
      if count = 0 then Value.Null else Value.Float (total /. float_of_int count)
    | Algebra.Min attr ->
      non_null attr
        (fun v _ acc ->
          match acc with
          | Value.Null -> v
          | best -> if Value.compare v best < 0 then v else best)
        Value.Null
    | Algebra.Max attr ->
      non_null attr
        (fun v _ acc ->
          match acc with
          | Value.Null -> v
          | best -> if Value.compare v best > 0 then v else best)
        Value.Null
  in
  ignore keys;
  Tuple.concat key
    (Tuple.of_list (List.map (fun (_, agg) -> compute agg) aggregates))

let min_value best v =
  match best with
  | Value.Null -> v
  | _ -> if Value.compare v best < 0 then v else best

let max_value best v =
  match best with
  | Value.Null -> v
  | _ -> if Value.compare v best > 0 then v else best

(* The positional kernel the compiled plan runs. One pass over the
   members computes every aggregate: each aggregate still sees the
   members in [Bag] order, with the same operations as its own fold in
   {!aggregate_group}, so every result — float Sum/Avg included — is
   identical. A Sum adds Int values unboxed in [isum] and switches to
   boxed [add_values] in [acc] at its first other value, from the same
   running total the boxed fold would hold there. Also returns each
   aggregate's non-null multiplicity, the running state a maintained
   group keeps beside its row. *)
let fold_aggregates ~aggs ~key contents =
  let k = Array.length aggs in
  let acc = Array.make k Value.Null in
  let isum = Array.make k 0 in
  let nonnull = Array.make k 0 in
  let total = Array.make k 0.0 in
  Bag.iter
    (fun tup n ->
      for i = 0 to k - 1 do
        match aggs.(i) with
        | A_count -> ()
        | A_sum pos -> (
          match Tuple.get tup pos with
          | Value.Null -> ()
          | Value.Int x when acc.(i) == Value.Null ->
            isum.(i) <- isum.(i) + (n * x);
            nonnull.(i) <- nonnull.(i) + n
          | v ->
            let sum =
              if acc.(i) != Value.Null then acc.(i)
              else if nonnull.(i) > 0 then Value.Int isum.(i)
              else Value.Null
            in
            acc.(i) <- add_values sum (scale_value n v);
            nonnull.(i) <- nonnull.(i) + n)
        | A_avg pos -> (
          match Tuple.get tup pos with
          | Value.Null -> ()
          | v ->
            total.(i) <- total.(i) +. (float_of_int n *. to_float v);
            nonnull.(i) <- nonnull.(i) + n)
        | A_min pos -> (
          match Tuple.get tup pos with
          | Value.Null -> ()
          | v ->
            let best = acc.(i) in
            let m = min_value best v in
            if m != best then acc.(i) <- m;
            nonnull.(i) <- nonnull.(i) + n)
        | A_max pos -> (
          match Tuple.get tup pos with
          | Value.Null -> ()
          | v ->
            let best = acc.(i) in
            let m = max_value best v in
            if m != best then acc.(i) <- m;
            nonnull.(i) <- nonnull.(i) + n)
      done)
    contents;
  let value i = function
    | A_count -> Value.Int (Bag.cardinal contents)
    | A_sum _ when acc.(i) == Value.Null ->
      if nonnull.(i) = 0 then Value.Null else Value.Int isum.(i)
    | A_avg _ ->
      if nonnull.(i) = 0 then Value.Null
      else Value.Float (total.(i) /. float_of_int nonnull.(i))
    | A_sum _ | A_min _ | A_max _ -> acc.(i)
  in
  (Tuple.concat key (Tuple.of_array (Array.mapi value aggs)), nonnull)

let aggregate_group_pos ~aggs ~key contents =
  fst (fold_aggregates ~aggs ~key contents)

(* ------------------------------------------------------------------ *)
(* Per-group state.                                                   *)

(* A live group of a [Group_by] node: its members, the output row last
   emitted for them, and each aggregate's non-null multiplicity. The row
   itself carries the other running accumulators — a Sum's total, a
   Min/Max's current extreme — so a change to the group derives the new
   row from the old one and the change alone. Entries are immutable: a
   step builds new ones and never writes to an entry an older state
   holds. *)
type entry = { members : Bag.t; row : Tuple.t; nonnull : int array }

(* A node's groups by key. A plan's [groups] maps its Group_by slots to
   these partitions; a slot is absent until the first delta reaching the
   node builds it. Both layers are persistent maps, so a step over an
   immutable pre-state returns the new state without touching the old. *)
module Tuple_map = Map.Make (Tuple)
module Slot_map = Map.Make (Int)

type groups = entry Tuple_map.t Slot_map.t

let no_groups = Slot_map.empty

let builds_counter = Atomic.make 0

let drops_counter = Atomic.make 0

let group_rows_counter = Atomic.make 0

let group_state_builds () = Atomic.get builds_counter

let group_state_drops () = Atomic.get drops_counter

let group_rows () = Atomic.get group_rows_counter

let drop_groups groups =
  ignore (Atomic.fetch_and_add drops_counter (Slot_map.cardinal groups));
  no_groups

let members key partition =
  match Tuple_map.find_opt key partition with Some b -> b | None -> Bag.empty

(* Partition [bag] by the key at [key_pos], keeping the groups whose key
   satisfies [keep]. *)
let group_members ~key_pos ~keep bag =
  Bag.fold
    (fun tup n acc ->
      let key = Tuple.project_pos key_pos tup in
      if keep key then
        Tuple_map.add key (Bag.add ~count:n tup (members key acc)) acc
      else acc)
    bag Tuple_map.empty

let entry ~aggs ~key members =
  let row, nonnull = fold_aggregates ~aggs ~key members in
  { members; row; nonnull }

(* A node's state built from its whole input. *)
let partition ~key_pos ~aggs bag =
  Tuple_map.mapi
    (fun key members -> entry ~aggs ~key members)
    (group_members ~key_pos ~keep:(fun _ -> true) bag)

let count_folded contents =
  ignore (Atomic.fetch_and_add group_rows_counter (Bag.cardinal contents))

(* One group's output row, recomputed by maintenance from its members. *)
let recompute ~aggs ~key contents =
  count_folded contents;
  aggregate_group_pos ~aggs ~key contents

exception Refold

(* The entry of a group whose members became [after] by [slice], derived
   from its previous entry ([None] for a new group) and the slice alone:
   Count is the members' cardinality, an Int Sum adds the slice's signed
   contribution (integer arithmetic wraps modulo 2^63 in any order, so
   this equals the fold), and Min/Max take the better of the extreme and
   the inserted values. Two cases fold [after] instead: a deleted value equal
   to the current extreme, whose successor only the members know; and a
   non-null change to a float Sum or an Avg, whose value depends on the
   order the members are added in. *)
let advance ~aggs ~key ~after ~slice previous =
  let k = Array.length aggs in
  let nkeys = Tuple.arity key in
  let acc, nonnull =
    match previous with
    | Some e ->
      ( Array.init k (fun i -> Tuple.get e.row (nkeys + i)),
        Array.copy e.nonnull )
    | None -> (Array.make k Value.Null, Array.make k 0)
  in
  match
    Signed_bag.fold
      (fun tup n () ->
        for i = 0 to k - 1 do
          match aggs.(i) with
          | A_count -> ()
          | A_sum pos | A_avg pos | A_min pos | A_max pos -> (
            match Tuple.get tup pos with
            | Value.Null -> ()
            | v -> (
              nonnull.(i) <- nonnull.(i) + n;
              match (aggs.(i), v, acc.(i)) with
              | A_sum _, Value.Int x, Value.Int s ->
                acc.(i) <- Value.Int (s + (n * x))
              | A_sum _, Value.Int x, Value.Null ->
                acc.(i) <- Value.Int (n * x)
              | (A_min _ | A_max _), _, _ when n < 0 ->
                if Value.compare v acc.(i) = 0 then raise Refold
              | A_min _, _, _ -> acc.(i) <- min_value acc.(i) v
              | A_max _, _, _ -> acc.(i) <- max_value acc.(i) v
              | (A_sum _ | A_avg _ | A_count), _, _ -> raise Refold))
        done)
      slice ()
  with
  | () ->
    Array.iteri
      (fun i agg ->
        match agg with
        | A_count -> acc.(i) <- Value.Int (Bag.cardinal after)
        | A_sum _ when nonnull.(i) = 0 -> acc.(i) <- Value.Null
        | A_sum _ | A_avg _ | A_min _ | A_max _ -> ())
      aggs;
    { members = after; row = Tuple.concat key (Tuple.of_array acc); nonnull }
  | exception Refold ->
    count_folded after;
    entry ~aggs ~key after

(* ------------------------------------------------------------------ *)
(* Hash join on counted tuple lists.                                  *)

(* Rows scanned by the join kernel, process-wide: build + probe side of
   every full hash join, probe side only when a prebuilt index is used.
   The shared-plan bench diffs this around a run as its work metric. *)
let rows_counter = Atomic.make 0

let kernel_rows () = Atomic.get rows_counter

let count_rows n = ignore (Atomic.fetch_and_add rows_counter n)

(* Join two counted collections on precomputed key positions: build a hash
   index on the smaller side, probe with the larger. Output tuples are
   always [left ++ right_extra] regardless of build direction, and
   multiplicities multiply (either may be negative — signed deltas).
   Zero-count entries are dropped from both sides up front: the index
   treats count-zero rows as dead, so keeping them on the probe side
   only would make the output depend on the build-side choice (which
   differs per shard). *)
let join_counted_seq ~key_left ~key_right ~right_extra left right =
  let live = List.filter (fun ((_ : Tuple.t), n) -> n <> 0) in
  let left = live left and right = live right in
  let nl = List.length left and nr = List.length right in
  if nl = 0 || nr = 0 then []
  else begin
    count_rows (nl + nr);
    let combine acc (ltup, ln) (rtup, rn) =
      (Tuple.concat ltup (Tuple.project_pos right_extra rtup), ln * rn) :: acc
    in
    if nr <= nl then begin
      let index = Bag_index.of_counted ~key_pos:key_right right in
      List.fold_left
        (fun acc (ltup, ln) ->
          List.fold_left
            (fun acc entry -> combine acc (ltup, ln) entry)
            acc
            (Bag_index.find index (Tuple.project_pos key_left ltup)))
        [] left
    end
    else begin
      let index = Bag_index.of_counted ~key_pos:key_left left in
      List.fold_left
        (fun acc (rtup, rn) ->
          List.fold_left
            (fun acc (ltup, ln) -> combine acc (ltup, ln) (rtup, rn))
            acc
            (Bag_index.find index (Tuple.project_pos key_right rtup)))
        [] right
    end
  end

(* Sharded variant: both sides are partitioned by the hash of their join
   key, so matching tuples always land in the same shard and the shards
   join independently (each building its own [Bag_index], on its own
   domain). Per-shard results are concatenated in shard order — the
   output is the same *bag* as the sequential kernel's (callers normalize
   through [Bag]/[Signed_bag], so list order is immaterial), and it is
   deterministic for a fixed shard count. *)
let shard_of ~shards key = Tuple.hash key land max_int mod shards

let partition_by ~shards ~key_pos entries =
  let parts = Array.make shards [] in
  List.iter
    (fun ((tup, _) as entry) ->
      let s = shard_of ~shards (Tuple.project_pos key_pos tup) in
      parts.(s) <- entry :: parts.(s))
    entries;
  parts

let join_counted_pos ?(exec = Parallel.Exec.sequential) ~key_left ~key_right
    ~right_extra left right =
  let shards = Parallel.Exec.shards exec in
  if
    shards <= 1
    || List.compare_lengths left [] = 0
    || List.compare_lengths right [] = 0
    || List.length left + List.length right < Parallel.shard_threshold
  then join_counted_seq ~key_left ~key_right ~right_extra left right
  else begin
    let lparts = partition_by ~shards ~key_pos:key_left left in
    let rparts = partition_by ~shards ~key_pos:key_right right in
    let pairs = List.init shards (fun s -> (lparts.(s), rparts.(s))) in
    List.concat
      (Parallel.Exec.map exec
         (fun (l, r) -> join_counted_seq ~key_left ~key_right ~right_extra l r)
         pairs)
  end

(* ------------------------------------------------------------------ *)
(* Columnar kernels: predicate compilation over value ids and the     *)
(* sharded columnar hash join.                                        *)

(* A compiled predicate specialized to a chunk: a closure from row
   index to bool, reading value ids straight out of the column arrays.
   Equality tests are id comparisons (interning is injective); ordered
   comparisons compare int-tagged ids directly and decode otherwise.
   Null keeps the {!Pred.cmp_holds} semantics: false on either side,
   except [Ne]. *)
let col_operand chunk = function
  | O_pos p -> fun row -> Columnar.get chunk p row
  | O_const v ->
    let id = Value.intern v in
    fun _ -> id

let rec col_pred chunk p : int -> bool =
  match p with
  | P_true -> fun _ -> true
  | P_false -> fun _ -> false
  | P_cmp (cmp, x, y) ->
    let fx = col_operand chunk x and fy = col_operand chunk y in
    let null = Value.null_id in
    (match cmp with
    | Pred.Eq ->
      fun row ->
        let a = fx row and b = fy row in
        a <> null && b <> null && a = b
    | Pred.Ne ->
      fun row ->
        let a = fx row and b = fy row in
        a = null || b = null || a <> b
    | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge ->
      let holds =
        match cmp with
        | Pred.Lt -> fun c -> c < 0
        | Pred.Le -> fun c -> c <= 0
        | Pred.Gt -> fun c -> c > 0
        | _ -> fun c -> c >= 0
      in
      fun row ->
        let a = fx row and b = fy row in
        a <> null && b <> null && holds (Value.compare_ids a b))
  | P_and (a, b) ->
    let fa = col_pred chunk a and fb = col_pred chunk b in
    fun row -> fa row && fb row
  | P_or (a, b) ->
    let fa = col_pred chunk a and fb = col_pred chunk b in
    fun row -> fa row || fb row
  | P_not a ->
    let fa = col_pred chunk a in
    fun row -> not (fa row)

(* Columnar join with the same sharding policy (and row accounting) as
   the boxed [join_counted_pos] the delta rules use: above the
   threshold, both sides partition by join-key hash and the shards join
   independently on the pool. *)
let join_col ~exec ~key_left ~key_right ~right_extra l r =
  let nl = Columnar.length l and nr = Columnar.length r in
  let out_arity = Columnar.arity l + Array.length right_extra in
  if nl = 0 || nr = 0 then Columnar.empty ~arity:out_arity
  else begin
    count_rows (nl + nr);
    let shards = Parallel.Exec.shards exec in
    if shards <= 1 || nl + nr < Parallel.shard_threshold then
      Columnar.join ~key_left ~key_right ~right_extra l r
    else begin
      let lparts = Columnar.hash_partition ~shards ~key_pos:key_left l in
      let rparts = Columnar.hash_partition ~shards ~key_pos:key_right r in
      let pairs = List.init shards (fun s -> (lparts.(s), rparts.(s))) in
      List.fold_left Columnar.append
        (Columnar.empty ~arity:out_arity)
        (Parallel.Exec.map exec
           (fun (a, b) -> Columnar.join ~key_left ~key_right ~right_extra a b)
           pairs)
    end
  end

(* ------------------------------------------------------------------ *)
(* Full evaluation.                                                   *)

(* Join-bearing plans run on the columnar kernels (conversion overhead
   amortizes over the join work); join-free plans stay on the boxed
   bags, whose Base case is a free pointer read. *)
let rec plan_joins t =
  match t.node with
  | Base _ -> false
  | Select (_, e) | Project (_, e) -> plan_joins e
  | Join _ -> true
  | Union (a, b) -> plan_joins a || plan_joins b
  | Group_by g -> plan_joins g.input

let rec has_group_by t =
  match t.node with
  | Base _ -> false
  | Select (_, e) | Project (_, e) -> has_group_by e
  | Join { left; right; _ } | Union (left, right) ->
    has_group_by left || has_group_by right
  | Group_by _ -> true

let rec eval_bag ?(exec = Parallel.Exec.sequential) db t =
  match t.node with
  | Join _ -> Columnar.to_bag (eval_col ~exec db t)
  | (Select _ | Project _ | Union _) when plan_joins t ->
    Columnar.to_bag (eval_col ~exec db t)
  | Base name -> Relation.contents (Database.find db name)
  | Select (pred, e) -> Bag.filter (eval_pred pred) (eval_bag ~exec db e)
  | Project (positions, e) ->
    Bag.map (Tuple.project_pos positions) (eval_bag ~exec db e)
  | Union (a, b) -> Bag.union (eval_bag ~exec db a) (eval_bag ~exec db b)
  | Group_by { input; key_pos; aggs; slot = _ } ->
    Tuple_map.fold
      (fun key members acc ->
        Bag.add (aggregate_group_pos ~aggs ~key members) acc)
      (group_members ~key_pos ~keep:(fun _ -> true) (eval_bag ~exec db input))
      Bag.empty

(* Columnar evaluation: selection/projection as int-array scans, joins
   through the columnar hash kernel. Base relations hand out their
   memoized chunk; grouping (a boxed-bag algorithm) converts at the
   boundary. *)
and eval_col ~exec db t =
  match t.node with
  | Base name -> Relation.columnar (Database.find db name)
  | Select (pred, e) ->
    let chunk = eval_col ~exec db e in
    Columnar.filter ~keep:(col_pred chunk pred) chunk
  | Project (positions, e) ->
    Columnar.project positions (eval_col ~exec db e)
  | Join { left; right; key_left; key_right; right_extra } ->
    join_col ~exec ~key_left ~key_right ~right_extra
      (eval_col ~exec db left) (eval_col ~exec db right)
  | Union (a, b) -> Columnar.append (eval_col ~exec db a) (eval_col ~exec db b)
  | Group_by _ ->
    Columnar.of_bag ~arity:(Schema.arity t.schema) (eval_bag ~exec db t)

let eval ?exec db t =
  Relation.with_contents (Relation.create t.schema) (eval_bag ?exec db t)

(* ------------------------------------------------------------------ *)
(* Incremental delta rules over compiled plans.                       *)

(* [delta ~changes ~eval_pre t] is the signed delta of plan [t] given the
   per-base-relation signed deltas [changes]; [eval_pre] evaluates a
   sub-plan over the pre-state (supplied by Delta to keep the dependency
   direction Compiled <- Delta). Join deltas are hash joins on the plan's
   precomputed key positions; the pre-state side of a rule is only
   evaluated when the matching delta side is non-empty. A [Group_by]
   recomputes exactly its affected groups, taking their members from
   [state] when the caller keeps one ([step]) and from a scan of the
   pre-state input otherwise. *)
let no_pre_relation : string -> Relation.t option = fun _ -> None

(* The key of [tup] at [key_pos] as interned ids — the probe currency of
   the int-keyed index; the boxed key tuple is never materialized. *)
let probe_ids key_pos tup =
  Array.map (fun p -> Value.intern (Tuple.get tup p)) key_pos

(* Probe a prebuilt index over B_pre (keyed at B's join key) with the
   left-side delta: output rows are left ++ right_extra, counts
   multiply. [filter], when present, restricts matches to pre-state
   rows satisfying a selection that sits between the join and the base
   relation. Only the probe side is charged to the kernel counter. *)
let probe_right_index ?filter ~index ~key_left ~right_extra da_l =
  count_rows (List.length da_l);
  let keep = match filter with None -> fun _ -> true | Some p -> eval_pred p in
  List.fold_left
    (fun acc (ltup, ln) ->
      Bag_index.fold_ids index (probe_ids key_left ltup)
        (fun rtup rn acc ->
          if keep rtup then
            (Tuple.concat ltup (Tuple.project_pos right_extra rtup), ln * rn)
            :: acc
          else acc)
        acc)
    [] da_l

(* Symmetric: probe an index over A_pre with the right-side delta. *)
let probe_left_index ?filter ~index ~key_right ~right_extra db_l =
  count_rows (List.length db_l);
  let keep = match filter with None -> fun _ -> true | Some p -> eval_pred p in
  List.fold_left
    (fun acc (rtup, rn) ->
      let extra = Tuple.project_pos right_extra rtup in
      Bag_index.fold_ids index (probe_ids key_right rtup)
        (fun ltup ln acc ->
          if keep ltup then (Tuple.concat ltup extra, ln * rn) :: acc else acc)
        acc)
    [] db_l

let rec delta_with ~state ~exec ~pre_relation ~changes ~eval_pre t =
  let go = delta_with ~state ~exec ~pre_relation ~changes ~eval_pre in
  match t.node with
  | Base name -> changes name
  | Select (pred, e) -> Signed_bag.filter (eval_pred pred) (go e)
  | Project (positions, e) -> Signed_bag.map (Tuple.project_pos positions) (go e)
  | Join { left; right; key_left; key_right; right_extra } ->
    let da = go left and db_ = go right in
    if Signed_bag.is_zero da && Signed_bag.is_zero db_ then Signed_bag.zero
    else begin
      let join = join_counted_pos ~exec ~key_left ~key_right ~right_extra in
      let da_l = Signed_bag.to_list da and db_l = Signed_bag.to_list db_ in
      (* An index over a pre-state side, avoiding its evaluation: the
         relation's own memoized int-keyed index when the side is a base
         relation — possibly under a pushed-down selection, which
         becomes a filter on the probe matches. *)
      let indexed side key =
        match side.node with
        | Base name ->
          Option.map
            (fun rel -> (Relation.index rel ~key_pos:key, None))
            (pre_relation name)
        | Select (p, { node = Base name; _ }) ->
          Option.map
            (fun rel -> (Relation.index rel ~key_pos:key, Some p))
            (pre_relation name)
        | _ -> None
      in
      (* d(A |><| B) = dA |><| B_pre + A_pre |><| dB + dA |><| dB *)
      let part1 =
        if da_l = [] then []
        else
          match indexed right key_right with
          | Some (index, filter) ->
            probe_right_index ?filter ~index ~key_left ~right_extra da_l
          | None -> join da_l (Bag.to_counted_list (eval_pre right))
      in
      let part2 =
        if db_l = [] then []
        else
          match indexed left key_left with
          | Some (index, filter) ->
            probe_left_index ?filter ~index ~key_right ~right_extra db_l
          | None -> join (Bag.to_counted_list (eval_pre left)) db_l
      in
      let part3 = if da_l = [] || db_l = [] then [] else join da_l db_l in
      Signed_bag.of_list (List.concat [ part1; part2; part3 ])
    end
  | Union (a, b) -> Signed_bag.sum (go a) (go b)
  | Group_by { input; key_pos; aggs; slot } ->
    let d_in = go input in
    if Signed_bag.is_zero d_in then Signed_bag.zero
    else begin
      (* The input delta sliced by group key: one slice per affected
         group. *)
      let slices =
        Signed_bag.fold
          (fun tup n acc ->
            let key = Tuple.project_pos key_pos tup in
            let slice =
              match Tuple_map.find_opt key acc with
              | Some s -> s
              | None -> Signed_bag.zero
            in
            Tuple_map.add key (Signed_bag.add tup n slice) acc)
          d_in Tuple_map.empty
      in
      match state with
      | None ->
        (* Without state: the affected groups' members from one scan of
           the pre-state input restricted to the affected keys, and each
           group's old and new rows recomputed from its members. *)
        let pre_groups =
          group_members ~key_pos
            ~keep:(fun key -> Tuple_map.mem key slices)
            (eval_pre input)
        in
        Tuple_map.fold
          (fun key slice out ->
            let before = members key pre_groups in
            let after = Signed_bag.apply slice before in
            let out =
              if Bag.is_empty before then out
              else Signed_bag.add (recompute ~aggs ~key before) (-1) out
            in
            if Bag.is_empty after then out
            else Signed_bag.add (recompute ~aggs ~key after) 1 out)
          slices Signed_bag.zero
      | Some groups ->
        (* With state (partitioning the whole pre-state input the first
           time): retract each affected group's cached row and emit the
           row {!advance} derives from the slice. *)
        let pre_groups =
          match Slot_map.find_opt slot !groups with
          | Some partition -> partition
          | None ->
            Atomic.incr builds_counter;
            partition ~key_pos ~aggs (eval_pre input)
        in
        let out, post_groups =
          Tuple_map.fold
            (fun key slice (out, groups) ->
              let previous = Tuple_map.find_opt key groups in
              let out, before =
                match previous with
                | Some e -> (Signed_bag.add e.row (-1) out, e.members)
                | None -> (out, Bag.empty)
              in
              let after = Signed_bag.apply slice before in
              if Bag.is_empty after then (out, Tuple_map.remove key groups)
              else
                let e = advance ~aggs ~key ~after ~slice previous in
                (Signed_bag.add e.row 1 out, Tuple_map.add key e groups))
            slices
            (Signed_bag.zero, pre_groups)
        in
        groups := Slot_map.add slot post_groups !groups;
        out
    end

let delta ?(exec = Parallel.Exec.sequential)
    ?(pre_relation = no_pre_relation) ~changes ~eval_pre t =
  delta_with ~state:None ~exec ~pre_relation ~changes ~eval_pre t

let step ?(exec = Parallel.Exec.sequential)
    ?(pre_relation = no_pre_relation) ~changes ~eval_pre ~groups t =
  let state = ref groups in
  let delta =
    delta_with ~state:(Some state) ~exec ~pre_relation ~changes ~eval_pre t
  in
  (delta, !state)

let build_groups ~eval_pre t =
  let rec go acc t =
    match t.node with
    | Base _ -> acc
    | Select (_, e) | Project (_, e) -> go acc e
    | Join { left; right; _ } | Union (left, right) -> go (go acc left) right
    | Group_by { input; key_pos; aggs; slot } ->
      Slot_map.add slot
        (partition ~key_pos ~aggs (eval_pre input))
        (go acc input)
  in
  go no_groups t

let group_state groups =
  List.map
    (fun (slot, partition) ->
      ( slot,
        List.map
          (fun (key, e) -> (key, e.members, e.row))
          (Tuple_map.bindings partition) ))
    (Slot_map.bindings groups)

(* ------------------------------------------------------------------ *)
(* Compile-once memoization.                                          *)

(* View managers hold one Algebra.t per view and compute a delta per
   transaction; the memo makes every call after the first reuse the plan.
   Keys compare physically (the same AST value), so structurally equal but
   distinct expressions each get their own entry — correct, just not shared.
   A hit is revalidated against the current base-relation schemas (compiling
   is per-name-resolution, so a same-named relation with a different schema
   must recompile). *)

module Expr_tbl = Hashtbl.Make (struct
  type t = Algebra.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

type memo_entry = { plan : t; bases : (string * Schema.t) list }

(* The memo is process-global and reachable from pool domains (a view
   manager's delta future compiles through it). A single table behind a
   single mutex serialized every compilation across domains; the table
   is sharded by the expression's structural hash instead — physical
   equality implies structural equality, so an expression always lands
   in the same shard — with one lock per shard. Contended acquisitions
   (try_lock failing before the blocking lock) are counted so the
   runtime can report residual serialization. *)
let memo_shards = 8

let memos : memo_entry Expr_tbl.t array =
  Array.init memo_shards (fun _ -> Expr_tbl.create 64)

let memo_locks = Array.init memo_shards (fun _ -> Mutex.create ())

let memo_shard_limit = 128

let contention_counter = Atomic.make 0

let memo_contention () = Atomic.get contention_counter

let memo_shard expr = Hashtbl.hash expr land max_int mod memo_shards

let compile_memo ~lookup expr =
  let shard = memo_shard expr in
  let lock = memo_locks.(shard) in
  if not (Mutex.try_lock lock) then begin
    ignore (Atomic.fetch_and_add contention_counter 1);
    Mutex.lock lock
  end;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let memo = memos.(shard) in
      let validate entry =
        List.for_all
          (fun (name, schema) ->
            match lookup name with
            | s -> Schema.equal s schema
            | exception _ -> false)
          entry.bases
      in
      match Expr_tbl.find_opt memo expr with
      | Some entry when validate entry -> entry.plan
      | _ ->
        let plan = compile ~lookup expr in
        let bases =
          List.map
            (fun name -> (name, lookup name))
            (Algebra.base_relations expr)
        in
        if Expr_tbl.length memo >= memo_shard_limit then Expr_tbl.reset memo;
        Expr_tbl.replace memo expr { plan; bases };
        plan)
