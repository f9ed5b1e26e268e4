(** A relation instance: a {!Bag.t} of tuples typed by a {!Schema.t}. *)

type t

exception Type_error of string

val create : Schema.t -> t
(** Empty relation over the schema. *)

val of_tuples : Schema.t -> Tuple.t list -> t
(** @raise Type_error if a tuple does not conform to the schema. *)

val schema : t -> Schema.t

val contents : t -> Bag.t

val with_contents : t -> Bag.t -> t
(** Replace the contents, keeping the schema. Conformance is the caller's
    responsibility (used by the evaluator, which constructs typed bags). *)

val insert : ?count:int -> Tuple.t -> t -> t
(** @raise Type_error if the tuple does not conform. *)

val delete : ?count:int -> Tuple.t -> t -> t

val apply_delta : Signed_bag.t -> t -> t
(** Apply a signed delta to the contents. An empty delta returns the
    relation itself (physically — memoized chunks and indexes ride
    along), so versions untouched by a transaction share storage. When
    the delta applies exactly ({!Signed_bag.applies_exactly}: no
    deletion clamps at zero), the new version carries it, for
    {!delta_since}. It keeps the parent's contents, not the parent
    record, so versions never chain. *)

val derive : Signed_bag.t -> t -> t
(** [derive delta t] is [t] with [delta] applied as {!Signed_bag.apply}
    applies it (deletions floor at zero) — how a view manager advances
    its base-data cache, one source step at a time. Every index
    memoized on [t] is carried into the result by {!Bag_index.derive}
    in O(|delta|), mirroring the clamp, so a cache's indexes survive
    updates instead of being rebuilt on the first probe after each one
    (counted by {!index_derived}). [t] is not changed and keeps
    answering for its own contents. No chunk and no provenance is
    carried: chunks are re-encoded on first use, and {!delta_since}
    answers [None] against the parent. An empty delta returns [t]
    itself. Store and source versions ({!apply_delta}, {!insert},
    {!delete}) keep building indexes lazily: they are retained across
    versions, and carried indexes would keep every overlay alive. *)

val index_derived : unit -> int
(** Process-wide count of indexes {!derive} carried into a child. *)

val index_builds : unit -> int
(** Process-wide count of indexes {!index} built over a version's
    whole contents. *)

val contents_only : t -> t
(** The same schema and contents without memoized chunks, indexes or
    provenance — what a checkpoint should marshal: memos hold
    process-local interned ids and are rebuilt on demand. Returns [t]
    itself when it holds none. *)

val delta_since : pre:t -> t -> Signed_bag.t option
(** [delta_since ~pre post] is the exact delta from [pre]'s contents to
    [post]'s when [post] knows it without a diff: [Some zero] when both
    hold the same bag (physically), [Some d] when [post] was built by
    {!apply_delta} from [pre]'s contents with a delta [d] that applied
    exactly — then [Signed_bag.apply d (contents pre) = contents post].
    [None] otherwise (a clamping delta, {!with_contents}, a version two
    or more steps away, an unrelated relation): the caller must diff. *)

val columnar : t -> Columnar.t
(** The relation's contents as a columnar chunk, memoized: encoded at
    most once per relation version, on first use, and shared by pointer
    with every consumer (and, through {!apply_delta}'s empty-delta fast
    path, with later versions that leave the relation unchanged).
    Nothing encodes eagerly: only join-bearing compiled plans read
    chunks, so a version no such plan reads never pays for one. *)

val index : t -> key_pos:int array -> Bag_index.t
(** Memoized hash index over the contents keyed at [key_pos]: installed
    at most once per version (counted by {!index_builds}), or carried
    from the parent by {!derive}. Safe to call from several domains: a
    build that loses the install race is dropped uncounted and the
    winner's index returned. The returned index is shared; the delta
    rules only probe it. *)

val index_stats : t -> Bag_index.occupancy list
(** Occupancy of every memoized index of this relation version (empty if
    none has been built) — surfaced through the system metrics so index
    churn is observable next to the merge batch counters. *)

val cardinal : t -> int

val is_empty : t -> bool

val mem : t -> Tuple.t -> bool

val count : t -> Tuple.t -> int

val tuples : t -> Tuple.t list

val equal : t -> t -> bool
(** Schemas and contents both equal. *)

val equal_contents : t -> t -> bool
(** Contents equal, ignoring attribute names (used by the consistency oracle
    to compare a materialized view with its recomputed definition). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
