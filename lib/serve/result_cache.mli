(** Versioned result cache for the compiled-plan read path.

    Conceptually keyed by (query, version): a cached bag is the result of
    one algebra expression evaluated against one immutable warehouse
    version. Physically one entry is kept per query — the result and the
    version it was computed at — and validity at another version is
    decided by *per-view change history*: the entry is valid at version
    [v] iff no view in the query's support (its base relations, which at
    the warehouse are view names) changed in the index interval between
    the computed-at version and [v]. Change history is fed by
    {!note_change} from the views named in each committed WT's action
    lists, so invalidation is exact: a hit is bit-for-bit the result the
    kernel would recompute.

    Validity works in both directions — a session reading an older
    version can reuse a result computed at a newer one when nothing in
    between touched the query's views. *)

open Relational

type t

type stats = {
  hits : int;
  misses : int;  (** Lookups that found no valid entry. *)
  stale : int;
      (** Misses where an entry existed but a support view had changed. *)
  evictions : int;
  entries : int;  (** Current occupancy. *)
  refreshed : int;
      (** Entries advanced in place by {!commit}'s incremental refresh. *)
  refresh_fallbacks : int;
      (** Touched entries {!commit} left to invalidation because the
          commit's deltas were wider than the cached result. *)
  deltas_carried : int;
      (** Per-view commit deltas {!commit} read off the post-state
          version ({!Relation.delta_since}) — O(|delta|) each. *)
  deltas_diffed : int;
      (** Per-view commit deltas {!commit} had to recover by diffing
          the whole pre- and post-state views, because the version
          carried none. *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 512) bounds the number of distinct queries
    cached; insertion beyond it evicts the oldest-inserted entry. *)

val note_change : t -> view:string -> version:int -> unit
(** Record that [view] changed at [version]. Versions must be reported in
    nondecreasing order per view (they come from the commit sequence). *)

val commit :
  t ->
  version:int ->
  changed:string list ->
  pre:Database.t ->
  post:Database.t ->
  unit
(** Process one commit: refresh-or-invalidate, then record the change
    notes for every view in [changed] (subsuming per-view
    {!note_change} calls). [pre]/[post] are the warehouse states
    before/after the commit that produced [version]; [changed] is the
    committed WT's view set. Cached entries valid at [version - 1]
    whose support intersects [changed] are advanced to [version] in
    place by pushing the commit's per-view deltas through the query's
    compiled delta plan — exact, so a refreshed hit is bit-for-bit a
    recompute — unless the summed delta width exceeds the cached
    result's cardinality, in which case the entry is simply left to
    invalidation (counted in [refresh_fallbacks]).

    Each touched view's delta is the one [post]'s version carries
    ({!Relation.delta_since}, counted in [deltas_carried]); only a
    version that carries none is diffed against [pre] in full
    ([deltas_diffed]).

    An entry whose query has a [Group_by] keeps that node's group
    state ({!Query.Compiled.groups}) and advances it with
    {!Query.Delta.step} on every commit touching its support, whether
    or not the result itself is refreshed; {!store} over an existing
    entry keeps it. The state is built once, on the first such commit,
    and dropped only when its support changed at a version that did
    not pass through [commit] (a {!note_change}), since it then no
    longer describes [pre]. *)

val find : t -> version:int -> Query.Algebra.t -> Bag.t option
(** A valid cached result for the query at the version, if any. *)

val peek : t -> version:int -> Query.Algebra.t -> bool
(** Would {!find} hit? Touches no statistics — the serving layer uses
    this to pick a service-time distribution (hit vs miss) before the
    actual lookup happens at service completion. *)

val store : t -> version:int -> support:string list -> Query.Algebra.t -> Bag.t -> unit
(** Cache the query's result as computed at [version]. [support] is the
    set of view names the result depends on
    ({!Query.Algebra.base_relations} of the expression). *)

val clear : t -> unit
(** Drop every entry, its group state ({!Query.Compiled.drop_groups})
    {e and} the per-view change history — warehouse
    crash recovery, where the version sequence is republished from
    scratch and change notes will be re-reported as it rebuilds.
    Cumulative statistics are kept. *)

val stats : t -> stats
