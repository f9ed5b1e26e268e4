(** The plan-driven view manager: complete, strongly consistent
    (batching) and complete-N maintenance, replica or self-maintaining
    cache, from one engine.

    The manager is a single-server queue over a {!Selfmaint.Plan}: when
    idle it takes the next step's transactions off its input queue,
    projects their combined changes ({!Selfmaint.Plan.project}),
    computes one delta against its local cache and the plan's
    [Group_by] state ({!Selfmaint.Plan.step}), advances the cache, and
    emits one action list whose [state] is the step's last transaction
    after a simulated computation latency. The delta runs as a future
    over an immutable snapshot of the pre-state (cache and group state
    are persistent), joined at the emit event, so a pooled [exec] moves
    real work off this domain without perturbing the simulated timeline.

    The {!drain} policy is the only behavioural difference between the
    paper's manager kinds, and it fixes the consistency level
    (Sections 2.2 and 6.3):
    - [One]: one transaction per step, so the emitted states pass
      through every source state — a {e complete} manager, which SPA
      requires. Under high update rates the queue grows, the effect
      benchmark P2 measures.
    - [Greedy]: the whole queue per step — "a strongly consistent view
      manager can batch multiple updates". Under load batches grow and
      action lists intertwine, the input class PA exists for; when idle,
      batches have size one.
    - [Exactly n]: "it may process N source updates at a time and
      maintain the view consistently after every N updates" — a
      {e complete-N} manager; a trailing partial batch is emitted only
      on {!Vm.t.flush}. One list covers N VUT rows, so the system must
      run PA.

    The plan decides the cache: {!Selfmaint.Plan.replica} keeps full
    base replicas, {!Selfmaint.Plan.create} keyed projections that never
    need the sources; both emit the same action lists. *)

type drain =
  | One  (** one transaction per step *)
  | Greedy  (** every queued transaction per step *)
  | Exactly of int  (** exactly [n] per step; the tail on flush *)

val level : drain -> Vm.level
(** [One] is [Complete], [Greedy] [Strongly_consistent], [Exactly n]
    [Complete_n n]. *)

val create :
  engine:Sim.Engine.t ->
  compute_latency:(batch:int -> float) ->
  ?exec:Parallel.Exec.t ->
  ?state:Relational.Database.t * Query.Compiled.groups ->
  ?on_apply:(Relational.Update.Transaction.t -> Relational.Database.t -> unit) ->
  drain:drain ->
  plan:Selfmaint.Plan.t ->
  emit:(Query.Action_list.t -> unit) ->
  unit ->
  Vm.t
(** [compute_latency ~batch] is sampled per step with the step's size.
    With a pooled [exec] (default sequential) the delta runs on the
    domain pool; results and the simulated timeline are identical.

    A plan {!Selfmaint.Plan.share} rewrote steps with each step's
    transaction id, so its slots advance once per transaction.

    [state], when given, resumes at a cache and its [Group_by] state
    (crash recovery rebuilds both by log replay) instead of the plan's
    initial cache. [on_apply txn cache] fires after each step's changes
    are applied — at the step's emit event, after its delta — with the
    step's last transaction: the durability hook the system layer uses
    for the auxiliary WAL.

    @raise Invalid_argument if [drain] is [Exactly n] with [n < 1], or
    if the plan has shared slots and [drain] is not [One]. *)
