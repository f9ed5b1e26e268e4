(** A maintenance plan: the auxiliary relations of one view plus the
    compiled machinery to probe and advance them — the one engine behind
    every delta-computing view manager ({!Viewmgr.Plan_vm},
    {!Viewmgr.Convergent_vm}) and the crash-recovery replay.

    Two shapes: {!create} derives keyed projections ({!Derive}), the
    self-maintaining cache; {!replica} demands every base relation in
    full, the base-replica cache of the complete, batching and
    complete-N managers. Both compute the same deltas.

    The plan is immutable; the auxiliary {e state} is a plain
    {!Database.t} plus the plan's [Group_by] state, threaded by the
    caller, so snapshots for in-flight delta futures and WAL checkpoints
    are pointer copies. *)

open Relational

type t

val create : initial:Database.t -> Query.View.t -> t
(** Derive the auxiliaries ({!Derive.analyze}) from the view definition
    against [initial]'s full base schemas, build the projected initial
    replicas, and compile the definition against the projected
    schemas. *)

val replica : initial:Database.t -> Query.View.t -> t
(** The plan whose auxiliaries are full replicas of the view's base
    relations, shared by pointer with [initial]; {!project} only drops
    the relations the view does not read. *)

val view : t -> Query.View.t

val auxes : t -> Derive.aux list

val initial_cache : t -> Database.t
(** The auxiliary state at source state [ss_0]: one relation per base
    relation of the view, full replicas shared by pointer with
    [initial], keyed projections materialized. *)

val project : t -> Query.Delta.changes -> Query.Delta.changes
(** Restrict a transaction's base-data changes to the view's base
    relations and project each one (every step of it) onto its live
    attributes — the only transformation between the update stream and
    the local probe. *)

val delta :
  ?exec:Parallel.Exec.t ->
  t ->
  pre:Database.t ->
  Query.Delta.changes ->
  Signed_bag.t
(** The view's maintenance delta, computed entirely from the auxiliary
    pre-state and the (already {!project}ed) changes — no source
    access. Equals {!Query.Delta} over the full base data (see
    {!Derive}). *)

val step :
  ?exec:Parallel.Exec.t ->
  t ->
  pre:Database.t ->
  groups:Query.Compiled.groups ->
  Query.Delta.changes ->
  Signed_bag.t * Query.Compiled.groups
(** {!delta} for a caller that keeps the plan's [Group_by] state across
    transactions ({!Query.Delta.step}): [groups] is the state at [pre]
    (start from {!Query.Compiled.no_groups}); returns the same delta and
    the state at the post-state, so a group recompute reads the affected
    groups' members instead of rescanning the whole input. *)

val advance : t -> Database.t -> Query.Delta.changes -> Database.t
(** Apply (already {!project}ed) changes to the auxiliary state, step
    by step as the sources applied them ({!Query.Delta.apply}), which
    carries the cache's memoized indexes into the new state. *)

type storage = {
  aux_rows : int;  (** rows across all auxiliary relations at [ss_0] *)
  aux_cells : int;  (** rows x live arity: what self-maintenance stores *)
  replica_rows : int;  (** rows a full-replica cache would hold *)
  replica_cells : int;  (** cells a full-replica cache would hold *)
}

val storage : t -> storage
(** Storage cost of the auxiliaries vs. the full-replica alternative
    (a {!replica} plan's cache), measured at the initial state. *)

val pp : Format.formatter -> t -> unit
