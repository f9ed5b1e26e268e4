(** The integrator process (Section 3.2).

    The integrator receives committed source transactions in order, numbers
    them by arrival ([U_i] is the i-th received), computes the relevant view
    set [REL_i] — the views that must be modified because of [U_i] — and
    routes: [REL_i] goes to the merge process, a copy of [U_i] goes to each
    view manager responsible for a view in [REL_i].

    This module is the integrator's pure core: numbering and REL
    computation. The WHIPS system assembly wires its outputs onto simulator
    channels. [REL] defaults to the syntactic test (views whose definition
    mentions an updated base relation); with [semantic_filter] the
    integrator additionally rules out updates that selection conditions
    prove irrelevant (the refinement of reference [7] the paper mentions).

    Per-update cost follows the update, not the view count: {!create}
    indexes the views by base relation once, and [REL_i] is the merge of
    the touched relations' view lists — O(|REL_i| + touched relations),
    plus the semantic test on those candidates only. *)

open Relational

type t

val create :
  ?semantic_filter:bool ->
  ?retain_log:bool ->
  schemas:(string -> Schema.t) ->
  Query.View.t list ->
  t
(** [semantic_filter] defaults to false. [retain_log] (default false)
    keeps every stamped transaction with its REL set, so a crashed view
    manager can re-derive its state by replay (the paper's assumption that
    the integrator "logs updates for recovery", Section 3.2). *)

val views : t -> Query.View.t list

val view_names : t -> string list

val ingest : t -> Update.Transaction.t -> Update.Transaction.t * string list
(** Number the transaction by arrival order (ids start at 1, overriding any
    id the caller stamped) and compute [REL_i]. Returns the stamped
    transaction and the relevant view names (possibly empty: the update
    affects no view and needs no warehouse work). *)

val rel_set : t -> Update.Transaction.t -> string list
(** The relevant view set, in view order, without numbering side
    effects. *)

val ingested : t -> int
(** How many transactions have been numbered. *)

val log_head : t -> int
(** Id of the newest logged transaction (0 before any ingest). Recovery
    replays up to this point and then resumes from live deliveries. *)

val next_id : t -> int
(** The id the next ingested transaction will be stamped with. *)

val retained_log : t -> (Update.Transaction.t * string list) list
(** The retained update log, ascending by id — what a durable layer
    checkpoints. Empty unless created with [retain_log]. *)

val retained_from : t -> skip:int -> (Update.Transaction.t * string list) list
(** The retained log minus its oldest [skip] entries, ascending — the
    delta an incremental checkpoint covers. One pass over the new
    suffix, not a rebuild of the whole log. *)

val restore : t -> next_id:int -> log:(Update.Transaction.t * string list) list -> unit
(** Integrator crash recovery: adopt the recovered numbering position and
    retained log ([log] ascending by id, as {!retained_log} returns it).
    Re-ingesting a source transaction after [restore] stamps it [next_id],
    exactly as the dead incarnation would have. *)

val replay_for :
  t ->
  view:string ->
  after:int ->
  (Update.Transaction.t * string list) list
(** Retained transactions relevant to [view] with id > [after], ascending.
    Empty unless the integrator was created with [retain_log]. *)

val route_shards :
  assignment:(string -> int) ->
  string list ->
  (int * string list) list
(** [route_shards ~assignment rel] partitions a relevant-view set by the
    warehouse shard each view is assigned to: the per-shard [REL]
    subsets a distributed integrator fans out, ascending by shard id,
    views keeping their [rel] order within a shard. Shards with no
    relevant view are absent — the router never wakes an unaffected
    shard's merge. *)
