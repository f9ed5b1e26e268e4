(** Compiled query plans: the positional, hash-based evaluation kernel.

    An {!Algebra.t} names attributes by string; evaluating it directly pays
    a schema name search per attribute {e per tuple}. Compilation resolves
    every name to an integer position once — select predicates become
    position comparisons, projections become position arrays, joins carry
    precomputed key/extra-column positions — and evaluation then runs
    positionally, with joins executed as build-on-smaller hash joins
    ({!Relational.Bag_index}). [Rename] nodes compile away entirely.

    {!Eval} and {!Delta} use this layer by default; their [~naive:true]
    paths keep the original interpreted kernels as the reference
    implementation for equivalence tests and the micro-bench ablation. *)

open Relational

type t
(** A compiled plan; carries its output schema at every node. *)

val compile : lookup:(string -> Schema.t) -> Algebra.t -> t
(** Resolve every attribute of the expression against the base-relation
    schemas supplied by [lookup]. Raises the same exceptions as
    {!Algebra.schema_of} on ill-typed expressions (unknown attributes,
    incompatible unions, conflicting join types). *)

val compile_memo : lookup:(string -> Schema.t) -> Algebra.t -> t
(** Like {!compile} but memoized on the physical identity of the
    expression, so a view manager evaluating the same definition per
    transaction compiles it once. Hits are revalidated against the current
    base-relation schemas and recompiled on mismatch. The memo is sharded
    by structural hash with one lock per shard, so concurrent domains
    compiling different expressions rarely serialize; {!Canon.intern}ed
    expressions share one physical key and therefore one plan. *)

val memo_contention : unit -> int
(** Process-wide count of contended memo-shard lock acquisitions (a
    [try_lock] that failed before blocking). {!Whips.Metrics} snapshots
    it around a run. *)

val kernel_rows : unit -> int
(** Process-wide count of rows scanned by the hash-join kernel: build +
    probe side of every full join, probe side only for the prebuilt-index
    delta paths. The shared-plan bench diffs it around a run as its
    delta-evaluation work metric. *)

val schema : t -> Schema.t

val eval : ?exec:Parallel.Exec.t -> Database.t -> t -> Relation.t

val eval_bag : ?exec:Parallel.Exec.t -> Database.t -> t -> Bag.t
(** @raise Database.Unknown_relation if a base relation is missing.
    With a pooled [exec], large joins run sharded (see
    {!join_counted_pos}); results are identical. *)

val delta :
  ?exec:Parallel.Exec.t ->
  ?pre_relation:(string -> Relation.t option) ->
  changes:(string -> Signed_bag.t) ->
  eval_pre:(t -> Bag.t) ->
  t ->
  Signed_bag.t
(** Signed delta of a compiled plan: [changes] supplies the per-base signed
    deltas and [eval_pre] evaluates sub-plans over the pre-state (the
    caller decides how — {!Delta} passes [eval_bag pre]). Join rules run as
    hash joins on the plan's precomputed key positions, and a rule's
    pre-state side is only evaluated when the matching delta side is
    non-empty.

    A [Group_by] recomputes exactly the groups its input delta touches:
    one scan of the pre-state input gathers those groups' members, each
    group's slice of the delta is applied to them, and the old and new
    output rows come from {!aggregate_group} over the old and new
    members. {!step} keeps each group's members and output row across
    calls instead, and derives the new row from the old one.

    [pre_relation name], when it returns [name]'s pre-state relation,
    lets the join rules fall back to the relation's own memoized
    int-keyed index ({!Relation.index}) for sides that are base
    relations — or selections pushed down onto base relations, whose
    predicate is then applied as a filter on the probe matches. Since
    the index is cached on the relation record itself, a 10k-row
    pre-state costs one index build per version rather than one scan per
    transaction. *)

(** {2 Per-group state} *)

type groups
(** Persistent maintenance state of a plan's [Group_by] nodes: each
    built node's input, partitioned by group key. Each group keeps its
    member bag, the output row last emitted for it, and each
    aggregate's non-null multiplicity; the row holds the other running
    accumulators (an Int Sum's total, a Min/Max's extreme). A node's
    partition is built on the first {!step} whose delta reaches it.
    Values are immutable: a step returns a new state and never changes
    one an older state, another domain or a cached snapshot still
    holds. *)

val no_groups : groups
(** No node built. *)

val has_group_by : t -> bool

val step :
  ?exec:Parallel.Exec.t ->
  ?pre_relation:(string -> Relation.t option) ->
  changes:(string -> Signed_bag.t) ->
  eval_pre:(t -> Bag.t) ->
  groups:groups ->
  t ->
  Signed_bag.t * groups
(** {!delta} with [groups] as the [Group_by] state: an affected group's
    cached row is retracted and its new row derived from that row, the
    group's running accumulators and its slice of the delta — Count is
    the members' cardinality, an Int Sum adds the slice, Min/Max compare
    the inserted values with the extreme. A built node then costs
    O(|delta| log G) with no scan of the input and no fold of a group's
    members, except for refolds: an affected group's members are folded
    again when a deletion removes a value equal to its current Min/Max,
    or when a float Sum or an Avg sees a non-null change (those folds
    are order-dependent and must stay identical to full evaluation).
    Refolds are counted in {!group_rows}. Returns the same delta as
    {!delta} and the state of the post-state.

    The state must partition what [eval_pre] returns for each built
    node's input, and [changes] must apply to the pre-state without
    clamping a deletion at zero ({!Signed_bag.applies_exactly}); the
    returned state then partitions the post-state. {!Delta.step} checks
    the second condition and calls {!delta} and {!drop_groups} when it
    fails. *)

val drop_groups : groups -> groups
(** [no_groups], counting each built node of the argument in
    {!group_state_drops}. *)

val build_groups : eval_pre:(t -> Bag.t) -> t -> groups
(** Every [Group_by] node of the plan built from [eval_pre] — the state
    a sequence of clean {!step}s must reach. *)

val group_state : groups -> (int * (Tuple.t * Bag.t * Tuple.t) list) list
(** Built nodes by slot (numbered in compile order), each with its
    groups in key order: key, members and cached output row. *)

val group_state_builds : unit -> int
(** Process-wide count of node partitions built by {!step}. *)

val group_state_drops : unit -> int
(** Process-wide count of built node partitions discarded by
    {!drop_groups}. *)

val group_rows : unit -> int
(** Process-wide count of member rows (with multiplicity) that
    [Group_by] maintenance folded: both folds of each affected group in
    the stateless {!delta}, and {!step}'s refolds. A node's first build
    (one fold of its whole input) is counted by {!group_state_builds}
    instead. *)

val join_counted_pos :
  ?exec:Parallel.Exec.t ->
  key_left:int array ->
  key_right:int array ->
  right_extra:int array ->
  (Tuple.t * int) list ->
  (Tuple.t * int) list ->
  (Tuple.t * int) list
(** Hash join of counted tuple collections on precomputed positions: a hash
    index is built on the smaller side and probed with the larger, so cost
    is O(|smaller| + |larger| + |output|) with no per-pair name resolution.
    Multiplicities multiply and may be negative (signed-delta joins).
    Output tuples are the left tuple followed by the right side's
    [right_extra] columns.

    With a pooled [exec] and at least {!Parallel.shard_threshold} total
    input rows, both sides are hash-partitioned by join key into the
    policy's shard count and the per-shard joins run across domains;
    per-shard results are concatenated in shard order. Since equal keys
    land in the same shard, the output is the same {e bag} of counted
    tuples as the sequential join (list order differs; all callers
    normalize through [Bag]/[Signed_bag]). *)

(** {2 Aggregate kernels} *)

val aggregate_group :
  input_schema:Schema.t ->
  group:Algebra.group_by ->
  key:Tuple.t ->
  Bag.t ->
  Tuple.t
(** [aggregate_group ~input_schema ~group ~key contents] computes the
    output row of one group: the key values followed by each aggregate
    evaluated over [contents] (multiplicities respected). [Null]s are
    skipped by Sum/Avg/Min/Max and counted by Count; an all-null group
    yields [Null] for that aggregate. The interpreted kernels
    ({!Eval}, the naive {!Delta} rules) use it; the compiled plan runs a
    positional copy whose results are identical — one pass over the
    members for all aggregates, each folding in the same order — for
    full evaluation, state builds, {!delta}'s recomputes and {!step}'s
    refolds. *)
