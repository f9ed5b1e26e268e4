(** Warehouse states as numbered immutable versions.

    Every warehouse commit publishes a new version: the post-commit state
    vector, the commit time, and the set of views the committing
    transaction changed (its [VS(WT)], which drives result-cache
    invalidation). Version 0 is the initial materialization. Because
    {!Relational.Database.t} is persistent, a version is a pointer — no
    state is copied, and a pinned version stays valid no matter what the
    store does afterwards.

    Retention is bounded: under [Keep_last n] a publish prunes versions
    beyond the window, advancing the {!watermark} — except that the
    watermark never passes a *pinned* version, so a pruning pass can
    never yank a snapshot out from under an in-flight reader holding a
    lease. Retained versions are contiguous, [watermark .. latest], which
    keeps {!as_of} an O(log retained) binary search. *)

open Relational

type version = {
  index : int;  (** Commit index; 0 is the initial state. *)
  time : float;  (** Commit time (0 for the initial version). *)
  state : Database.t;  (** The warehouse state vector. *)
  changed : string list;
      (** Views the committing WT changed ([[]] for the initial
          version). *)
}

type retention = Keep_all | Keep_last of int

exception Pruned of int
(** The requested version index has been pruned (it is below the
    watermark). *)

type t

val create : ?retention:retention -> Database.t -> t
(** [create initial] starts the history at version 0 = [initial].
    [retention] defaults to [Keep_all]; [Keep_last n] keeps the [n] most
    recent versions (plus any pinned ones).
    @raise Invalid_argument on [Keep_last n] with [n < 1]. *)

val publish : t -> time:float -> changed:string list -> Database.t -> version
(** Append the next version and run the pruning pass. Publish times must
    be nondecreasing (they come from the simulation clock).

    Publishing is O(1) in the size of the state: it encodes no chunk.
    A relation's columnar chunk is built on the first kernel use that
    needs it ({!Relation.columnar}) and memoized on the relation
    record, so every retained version sharing an unchanged record
    shares that chunk by pointer, and a version no join-bearing read
    touches never pays for one.
    @raise Invalid_argument if [time] decreases. *)

val restart : t -> initial:Database.t -> unit
(** Warehouse crash recovery: discard the published history and restart
    at version 0 = [initial]. The caller republishes the restored commit
    sequence, landing each version back at its original index.
    Outstanding pin leases are {e kept}: pinned versions are persistent
    snapshots, so in-flight readers stay valid across the restart, and
    their later {!unpin} calls match the republished indices. *)

val latest : t -> version

val version_count : t -> int
(** Versions ever published, including version 0 and pruned ones
    ([latest.index + 1]). *)

val watermark : t -> int
(** Index of the oldest retained version. *)

val retained : t -> int

val find : t -> int -> version
(** @raise Pruned if below the watermark.
    @raise Invalid_argument if beyond the latest version. *)

val as_of : t -> float -> version
(** The version visible at an instant: the latest version with
    [time <= instant] (ties: highest index wins, versions being ordered
    by index with nondecreasing times).
    @raise Pruned if that version has been pruned. *)

val oldest_live : t -> version
(** The version at the watermark. *)

val oldest_at_least : t -> float -> version
(** The oldest retained version with [time >= instant] — the most
    cache-friendly snapshot satisfying a staleness bound — or {!latest}
    when even the newest version is older than [instant]. *)

val pin : t -> int -> version
(** Take a lease on a version: it survives pruning until the matching
    {!unpin}. Leases nest (a count is kept per version).
    @raise Pruned / [Invalid_argument] like {!find}. *)

val unpin : t -> int -> unit
(** Release one lease and re-run the pruning pass the pin may have been
    blocking. Unbalanced unpins raise [Invalid_argument]. *)

val pinned : t -> int
(** Number of distinct versions currently holding at least one lease. *)

type chunk_stats = {
  slots : int;  (** (retained version, relation) pairs — logical chunks. *)
  distinct : int;  (** Physically distinct chunks backing them. *)
}

val chunk_stats : t -> chunk_stats
(** How much columnar storage MVCC retention shares: each retained
    version's relations counted once per version ([slots]), versus the
    number of physically distinct chunks backing them ([distinct]).
    Relations a commit left untouched keep their record — and thus
    their chunk — so [distinct] grows only with actual change. Forces
    any not-yet-encoded chunk (once per distinct relation record). *)

val pin_latest : t -> version
(** Pin the newest version in one step — the leg-acquisition primitive of
    a cross-shard global cut, where find-then-pin would race with a
    concurrent publish advancing [latest] between the two calls. *)
