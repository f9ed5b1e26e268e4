(** Versioned result cache for the compiled-plan read path.

    Keyed by (query, version): a cached bag is the result of one algebra
    expression evaluated against one immutable warehouse version. One
    entry is kept per query, holding one {e snapshot} per version it has
    a result for. Validity at another version is decided by *per-view
    change history*: a read at [v] is answered by the entry's floor
    snapshot (the newest at or before [v]) iff no view in the query's
    support (its base relations, which at the warehouse are view names)
    changed in the index interval between the two. Change history is fed
    by {!note_change} from the views named in each committed WT's action
    lists, so invalidation is exact: a hit is bit-for-bit the result the
    kernel would recompute.

    Validity works in both directions — a read older than every
    snapshot can reuse the oldest one when nothing in between touched
    the query's views. Both lookups are O(log snapshots).

    Once {!bind}ed to its {!Version_manager}, snapshot retention follows
    the manager's: snapshots below its watermark are dropped, except the
    floor snapshot at the watermark itself. The watermark never passes a
    pinned version, so a snapshot a pinned read can use never goes. *)

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
      (** Snapshots {!commit}'s incremental refresh added. *)
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
  snapshots : int;
      (** Per-version results currently retained, across all entries. *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 512) bounds the number of distinct queries
    cached; insertion beyond it evicts the oldest-inserted entry. *)

val bind : t -> Version_manager.t -> unit
(** Name the version history the cache serves, so snapshot retention
    follows its watermark ({!Session.create} binds its cache). An
    unbound cache keeps every snapshot. Binding again to the same
    manager is a no-op.
    @raise Invalid_argument if already bound to another manager. *)

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
    committed WT's view set. An entry whose support intersects
    [changed] and which has a snapshot valid at [version - 1] gains a
    snapshot at [version], built by pushing the commit's per-view deltas
    through the query's compiled delta plan — exact, so a refreshed hit
    is bit-for-bit a recompute — unless the summed delta width exceeds
    the cached result's cardinality, in which case the entry gains
    nothing (counted in [refresh_fallbacks]). A [Base v] query's
    snapshot is [post]'s own bag for [v], by pointer. Older snapshots
    stay, so reads pinned before the commit still hit.

    Each touched view's delta is the one [post]'s version carries
    ({!Relation.delta_since}, counted in [deltas_carried]); only a
    version that carries none is diffed against [pre] in full
    ([deltas_diffed]).

    An entry whose query has a [Group_by] keeps that node's group
    state ({!Query.Compiled.groups}) and advances it with
    {!Query.Delta.step} on every commit touching its support, whether
    or not a snapshot is refreshed; {!store} over an existing
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
(** Cache the query's result as computed at [version], as a snapshot
    beside the entry's others. [support] is the set of view names the
    result depends on ({!Query.Algebra.base_relations} of the
    expression). *)

val clear : t -> unit
(** Drop every entry, its group state ({!Query.Compiled.drop_groups})
    {e and} the per-view change history — warehouse
    crash recovery, where the version sequence is republished from
    scratch and change notes will be re-reported as it rebuilds.
    Cumulative statistics are kept. *)

val snapshot_count : t -> Query.Algebra.t -> int
(** Snapshots retained for the query (0 when it has no entry). *)

val stats : t -> stats
