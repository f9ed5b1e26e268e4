(** A maintenance plan: the auxiliary relations of one view plus the
    compiled machinery to probe and advance them — the one engine behind
    every delta-computing view manager ({!Viewmgr.Plan_vm},
    {!Viewmgr.Convergent_vm}), the sequential strawman, the
    crash-recovery replay and shared subplans ({!share}).

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
  ?txn:int ->
  t ->
  pre:Database.t ->
  groups:Query.Compiled.groups ->
  Query.Delta.changes ->
  Signed_bag.t * Query.Compiled.groups
(** {!delta} for a caller that keeps the plan's [Group_by] state across
    transactions ({!Query.Delta.step}): [groups] is the state at [pre]
    (start from {!Query.Compiled.no_groups}); returns the same delta and
    the state at the post-state, so a group recompute reads the affected
    groups' members instead of rescanning the whole input.

    A plan {!share} rewrote also needs [txn], the id of the one
    transaction whose changes these are: each slot the plan reads is
    bound to its delta at [txn] — computed by the first referrer to
    demand it, a memo hit for the others — and to its newest version
    before [txn], which the plan's join rules probe like any base
    relation of [pre].
    @raise Invalid_argument if the plan has slots and [txn] is absent. *)

val advance : t -> Database.t -> Query.Delta.changes -> Database.t
(** Apply (already {!project}ed) changes to the auxiliary state, step
    by step as the sources applied them ({!Query.Delta.apply}), which
    carries the cache's memoized indexes into the new state. *)

(** {2 Shared subplans}

    Views whose definitions overlap recompute the same join delta once
    per view per update. {!share} maintains each such subplan once: a
    join-bearing subexpression that two or more of the plans contain
    (after {!Query.Optimize} and {!Query.Canon}'s normal form) becomes a
    {e slot} of one table that every plan containing it reads. A slot
    keeps one relation per transaction it advanced through, each
    derived from the one before ({!Relational.Relation.derive}, which
    carries its memoized indexes), the [Group_by] state of its newest
    version, and a per-transaction delta memo.

    Deltas are unchanged: a rewritten plan's delta equals the original
    plan's. Referrers must demand their transactions in increasing id
    order, each seeing every transaction that touches the slot's base
    relations, one transaction per {!step}; their pre-states must agree
    on those relations. Slot demands are serialized by the table's lock
    and run sequentially, so plans may step concurrently on a domain
    pool. *)

type slots
(** The slot table of one {!share} call. *)

val share : t list -> t list * slots
(** The plans, in order, each rewritten to read the slots it contains
    (plans that contain none are returned unchanged), and their slot
    table. Only a slot whose pre-state some delta rule reads — a join
    operand or a [Group_by] input — keeps versions, the first
    materialized from the plans' initial state on the first demand;
    the others pass their deltas only.
    @raise Invalid_argument on a self-maintaining plan ({!create}): a
    slot is evaluated over full base relations, which only {!replica}
    caches hold. *)

val has_slots : t -> bool

type slot_stats = {
  slots : int;
  hits : int;  (** demands served from a slot's memo *)
  misses : int;  (** demands that computed a slot's delta *)
  rows_maintained : int;  (** total |delta| rows the slots advanced by *)
}

val slot_stats : slots -> slot_stats

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
