(** Hash index over counted tuples, keyed by a projected position list.

    The probe side of a hash join, group-by partitioning, and view-store
    membership checks all need "every (tuple, count) whose key columns equal
    [k]" in O(1) expected time. An index is built once per operator
    invocation from the build side's counted tuples; keys are positional
    projections ({!Tuple.project_pos}), so no attribute-name resolution
    happens per tuple. Counts pass through untouched and may be negative
    (signed deltas index fine).

    An index is immutable once {!derive} has used it: the next version
    of a maintained relation gets its own index in O(|delta|), a frozen
    flat table shared by pointer plus a persistent overlay of the
    changed entries, and every earlier version keeps probing its own
    bag. Only an index nothing derives from may be edited in place
    ({!apply_signed}). *)

type t

val of_counted : key_pos:int array -> (Tuple.t * int) list -> t
(** Zero-count entries are dropped. *)

val of_bag : key_pos:int array -> Bag.t -> t

val find : t -> Tuple.t -> (Tuple.t * int) list
(** [find t key] is every indexed entry whose projected key equals [key]
    (which must have arity [Array.length key_pos]); [[]] when none. *)

val fold_ids : t -> int array -> (Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_ids t ids f acc] folds [f] over every live entry whose key
    columns intern to exactly [ids] — the allocation-free probe the
    compiled delta rules use: the key never exists as a boxed tuple. *)

val find_matching : t -> Tuple.t -> (Tuple.t * int) list
(** [find_matching t tup] projects [tup] through the index's own [key_pos]
    and looks the result up — for probes whose tuples share the build side's
    schema. When the probe side has a different schema, project its key with
    that side's positions and use {!find}. *)

val groups : t -> (Tuple.t * (Tuple.t * int) list) list
(** All (key, entries) groups, unordered. *)

val n_keys : t -> int

val derive : t -> Signed_bag.t -> t
(** [derive t delta] indexes [Signed_bag.apply delta b] when [t]
    indexes the bag [b]: each tuple's count moves exactly as the bag's
    does, an insertion adding and a deletion flooring at zero, so a
    clamping delta derives the index of the clamped bag. [t] is never
    changed: the result shares [t]'s flat table and records only the
    changed entries in a persistent overlay. Each delta entry costs a
    lookup in its key's overlay and chain, never a pass over the table,
    so siblings derived from one parent and the parent itself all keep
    answering for their own bag at O(|delta|) cost per version.
    When the overlay reaches a quarter of the table's live rows (and at
    least 16 entries) the result is rebuilt flat instead, counted by
    {!flattens}. An empty delta, or one that changes no count, returns
    [t] itself. *)

val flattens : unit -> int
(** Process-wide count of derived indexes rebuilt flat by {!derive}. *)

val apply_signed : t -> Signed_bag.t -> unit
(** [apply_signed t delta] edits the index in place so it indexes
    [Signed_bag.apply delta b] whenever it previously indexed [b] (the
    delta must apply exactly — counts that sum to zero are dropped, and
    net-negative counts would be recorded as-is). Lets a long-lived index
    over a maintained intermediate ride through updates instead of being
    rebuilt per batch. Bucket order is not preserved; consumers must not
    depend on entry order (join results are canonicalized into bags).
    An empty delta returns immediately without allocating.

    Counts that reach exactly zero become tombstones; once tombstones
    are at least half of the stored rows (and the index is non-trivial)
    the index compacts in place — live entries and probe results are
    unchanged, but row and slot storage stays proportional to the live
    population under churn instead of growing forever.

    @raise Invalid_argument on an index that {!derive} produced or
    derived from: its table is shared with other versions. *)

type occupancy = {
  rows : int;  (** Rows of the flat table, tombstones included. *)
  live : int;  (** Live entries, overlay included. *)
  tombstones : int;
  slots : int;  (** Physical slot-table size (power of two). *)
  overlay : int;  (** Entries {!derive} overlaid on the table; 0 when flat. *)
}

val occupancy : t -> occupancy
(** Storage accounting, for the churn tests pinning bounded growth. *)
