(** Hash index over counted tuples, keyed by a projected position list.

    The probe side of a hash join, group-by partitioning, and view-store
    membership checks all need "every (tuple, count) whose key columns equal
    [k]" in O(1) expected time. An index is built once per operator
    invocation from the build side's counted tuples; keys are positional
    projections ({!Tuple.project_pos}), so no attribute-name resolution
    happens per tuple. Counts pass through untouched and may be negative
    (signed deltas index fine).

    An index is immutable: the next version of a maintained relation
    gets its own index in O(|delta|) ({!derive}), a flat table shared
    by pointer plus a persistent overlay of the changed entries, and
    every earlier version keeps probing its own bag. *)

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

type occupancy = {
  rows : int;  (** Rows of the flat table. *)
  live : int;  (** Live entries, overlay included. *)
  slots : int;  (** Physical slot-table size (power of two). *)
  overlay : int;  (** Entries {!derive} overlaid on the table; 0 when flat. *)
}

val occupancy : t -> occupancy
(** Storage accounting, surfaced through the system metrics. *)
