(** The warehouse view store.

    Holds the materialized views and applies warehouse transactions
    atomically, recording the full warehouse state sequence
    [ws_0, ws_1, ..., ws_q] (Section 2.3: a warehouse state is a vector
    with one element per view). The recorded history is what the
    consistency oracle inspects.

    Commits are kept in a growable array ordered by commit time (the
    simulated clock is nondecreasing), so {!as_of} is a binary search
    rather than a scan of the whole history. A {!retention} policy bounds
    how much history is retained: the consistency oracle needs [Keep_all]
    (the default), while long soaks can run with [Keep_last] so a
    million-transaction run does not retain every historical state
    vector. *)

open Relational

type commit = {
  time : float;  (** Simulated commit time (0 outside a simulation). *)
  transaction : Wt.t;
  state : Database.t;  (** The warehouse state vector after the commit. *)
}

(** How much commit history to retain. [Keep_all] records every state
    (what {!states} and the consistency oracle expect). [Keep_last n]
    keeps only the [n] most recent commits; older ones are discarded and
    the watermark advances. The *current* state is always available
    either way — retention only limits time travel. *)
type retention = Keep_all | Keep_last of int

type t

exception Unknown_view of string

exception Pruned of float
(** Raised by {!as_of} when the requested instant falls below the
    retention watermark: some commit before it has been discarded, so the
    state at that time is no longer recorded. Carries the requested
    time. *)

val create : ?retention:retention -> (string * Relation.t) list -> t
(** Initial materializations, one per view. [retention] defaults to
    [Keep_all].
    @raise Invalid_argument on [Keep_last n] with [n < 1]. *)

val retention : t -> retention

val views : t -> string list

val view : t -> string -> Relation.t
(** @raise Unknown_view if absent. *)

val snapshot : t -> Database.t
(** Current warehouse state vector (views as a database). *)

val initial : t -> Database.t
(** [ws_0]. *)

val apply : t -> ?time:float -> Wt.t -> unit
(** Apply a warehouse transaction atomically: every action list in order,
    then record the new state (and prune past the retention window).
    Commit times must be nondecreasing across calls — they are stamped
    from the simulation clock. The transaction is planned as a run of
    one ({!plan_run}), so each changed view's new version carries the
    transaction's net delta on it ({!Relation.delta_since}).
    @raise Unknown_view if an action list targets an unknown view. *)

type run_plan = {
  planned : (Wt.t * Database.t) list;
      (** One entry per transaction of the run, in order, with the
          warehouse state vector after it — exactly the states the
          one-at-a-time {!apply} would have recorded. *)
  coalesced_in : int;
      (** Elementary delta operations fed into per-transaction summing. *)
  coalesced_out : int;
      (** Operations left after summing — [1 - out/in] is the
          cancellation ratio. *)
  seq_fallbacks : int;
      (** (transaction, view) groups where the clamp guard refused the
          sum and the group was applied list by list. *)
}

val plan_run :
  ?run_tasks:((unit -> unit) list -> unit) -> t -> Wt.t list -> run_plan
(** Plan a ready run of transactions against the current state without
    committing it. Per view, the run's action lists are summed
    transaction by transaction ({!Signed_bag.coalesce} guards against
    clamping divergence) and the view's relation timeline is built in
    one walk; views untouched by a transaction share their relation by
    pointer. A version built from a summed delta that applies exactly
    is built by {!Relation.apply_delta} and so carries that delta
    (O(|delta| log n) work, no scan of the view); refresh lists and
    clamp fallbacks build plain versions that carry none. No columnar
    chunk is encoded here: chunks are built on first kernel use.
    [run_tasks] executes the independent per-view walks — pass
    a domain-pool iterator to fan them out (default: run in place). The
    plan is only valid while no other commit intervenes.
    @raise Unknown_view if an action list targets an unknown view. *)

val apply_planned : t -> ?time:float -> Wt.t -> Database.t -> unit
(** Install one planned entry as a commit, identical in shape and
    sequence to what {!apply} records. Entries of a plan must be
    installed in order, with no interleaved {!apply}. *)

val commit_run : t -> ?time:float -> Wt.t list -> run_plan
(** [plan_run] + install every entry at one [time]: the run committed as
    a batch (the paper's batching consistency level releases a run this
    way). Returns the plan for its counters. *)

val commits : t -> commit list
(** Retained committed transactions, oldest first (all of them under
    [Keep_all]). *)

val commits_from : t -> int -> commit list
(** [commits_from t i]: retained commits whose global index is [>= i],
    oldest first — the delta an incremental checkpoint covers, built
    without materializing the whole history. *)

val restore : t -> (float * Wt.t) list -> unit
(** [restore t commits] discards all in-memory state and rebuilds the
    store by re-applying [commits] (oldest first, as [(time, wt)] pairs)
    to the initial state — crash recovery from a checkpoint + WAL tail.
    Deterministic re-application reproduces the exact pre-crash state
    vector sequence, so downstream consumers (serving, the oracle) see
    identical databases at identical commit indices. *)

val commit_count : t -> int
(** Total commits ever applied, including pruned ones. *)

val watermark : t -> int
(** Number of commits discarded by retention — the global index of the
    oldest retained commit. 0 under [Keep_all]. *)

val retained : t -> int
(** Commits currently retained ([= commit_count] under [Keep_all]). *)

val states : t -> Database.t list
(** [ws_0 ... ws_q]: initial state followed by the state after each
    retained commit. Under [Keep_last] this is a suffix of the history
    prefixed by [ws_0] — feed the oracle [Keep_all] stores only. *)

val as_of : t -> float -> Database.t
(** The warehouse state visible at a given (simulated) time: the state
    produced by the last commit at or before that instant ([ws_0] before
    any commit). When several commits carry the same time, the latest of
    them wins. O(log retained) binary search over the commit array; the
    returned database is a persistent snapshot, so no data is copied.
    @raise Pruned if the instant falls below the retention watermark. *)
