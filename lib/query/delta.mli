(** Incremental view maintenance: exact signed-bag delta rules.

    Given the database state *before* a batch of base-data changes and the
    signed delta of each changed base relation, [eval] computes the signed
    delta of an algebra expression, satisfying

    {[ apply (delta pre changes e) (eval_bag pre e) = eval_bag post e ]}

    where [post] is [pre] with the changes applied. This is the standard
    counting algorithm for bag SPJ-U views (Griffin-Libkin style, reference
    [3] of the paper); view managers use it for their delta computation. *)

open Relational

type changes
(** Signed deltas per base relation. *)

val no_changes : changes

val changes_of_list : (string * Signed_bag.t) list -> changes
(** Later entries for the same relation are summed. The entries are also
    kept in order as the relation's steps, for {!first_clamp}. *)

val add_change : string -> Signed_bag.t -> changes -> changes
(** One more step of the relation: summed into its total and appended to
    its steps. *)

val of_update : Update.t -> changes

val of_transaction : Update.Transaction.t -> changes
(** Each update is one step of its relation ({!first_clamp}); a modify
    is two, the delete of its [before] then the insert of its [after]. *)

val of_transactions : Update.Transaction.t list -> changes
(** Combined delta of a batch of transactions applied in order. The batch
    delta is the sum of per-transaction deltas, which is exact for
    signed bags. *)

val change_for : changes -> string -> Signed_bag.t

val restrict_map :
  (string -> (Signed_bag.t -> Signed_bag.t) option) -> changes -> changes
(** Keep the relations [f] maps to [Some g] and push each of their steps
    through [g], which must be linear (a projection: the image of the sum
    is the sum of the images). Relations [f] maps to [None] are
    dropped. *)

val apply : Database.t -> changes -> Database.t
(** Advance every changed relation [db] holds to its post-state by
    applying its steps one by one, as the sources did, so a clamping
    deletion floors at zero where theirs did. Relations absent from
    [db] are ignored. *)

val first_clamp : pre:Database.t -> changes -> (string * Tuple.t) option
(** The first relation of [pre] and tuple at which applying the changes'
    steps one by one would delete a tuple the relation does not hold
    ({!Signed_bag.first_clamp}), or [None] when every relation's steps
    apply exactly — and then [pre] plus each relation's summed delta is
    the post-state. Relations absent from [pre] are ignored. *)

val changed_relations : changes -> string list

val eval :
  ?naive:bool ->
  ?exec:Parallel.Exec.t ->
  pre:Database.t ->
  changes ->
  Algebra.t ->
  Signed_bag.t
(** The signed delta of the expression. By default the expression is
    compiled (memoized) and the join delta-rules run as hash joins on
    precomputed key positions; [~naive:true] selects the interpreted
    reference rules with nested-loop joins. A pooled [exec] shards large
    joins across domains; the result is identical.
    @raise Database.Unknown_relation if the expression mentions a base
    relation absent from [pre]. *)

val eval_plan :
  ?exec:Parallel.Exec.t ->
  pre:Database.t ->
  changes ->
  Compiled.t ->
  Signed_bag.t
(** Delta of an already-compiled plan — what view managers use, compiling
    their definition once at creation instead of per transaction. A
    relation the changes carry may be absent from [pre] as long as no
    rule reads its pre-state (it sits under no join and no [Group_by]):
    how a shared slot without versions passes its delta
    ({!Selfmaint.Plan.share}).
    @raise Database.Unknown_relation on any other absent relation. *)

val step :
  ?exec:Parallel.Exec.t ->
  pre:Database.t ->
  groups:Compiled.groups ->
  changes ->
  Compiled.t ->
  Signed_bag.t * Compiled.groups
(** {!eval_plan} for a caller that keeps the plan's [Group_by] state
    across transactions (view managers with a base cache): [groups] must
    be the state returned by the previous step, whose post-state is
    [pre] (start from {!Compiled.no_groups}). Returns the same delta as
    {!eval_plan} and the state for the next step. Nodes are built lazily
    by the first step whose delta reaches them. When {!first_clamp}
    finds a clamping deletion the step falls back to {!eval_plan} and
    drops the state ({!Compiled.drop_groups}); a later step rebuilds it
    from its own pre-state. *)

val relevant : changes -> Algebra.t -> bool
(** True when some changed relation appears in the expression. A cheap
    syntactic test; see {!Irrelevance} for the semantic refinement. *)
