(** The complete view manager.

    Processes one update at a time: for each relevant transaction [U_j] it
    computes the exact incremental delta of its view against a local cache
    of the base relations (maintained in update order), applies the
    transaction to the cache, and emits [AL^x_j] after a simulated
    computation latency. The emitted warehouse states pass through every
    source state — the manager is complete (Section 2.2), which is what the
    Simple Painting Algorithm requires.

    The manager is a single-server queue: transactions arriving while one
    is being processed wait, preserving order. Under high update rates the
    queue grows — the effect benchmark P2 measures.

    Aggregate views: the manager keeps the plan's [Group_by] state next
    to its base cache and advances both per delta ({!Query.Delta.step}),
    so a group recompute reads the affected groups' members instead of
    the whole input. *)

val create :
  engine:Sim.Engine.t ->
  compute_latency:(batch:int -> float) ->
  ?exec:Parallel.Exec.t ->
  ?delta_fn:
    (pre:Relational.Database.t ->
    Relational.Update.Transaction.t ->
    Relational.Signed_bag.t) ->
  initial:Relational.Database.t ->
  view:Query.View.t ->
  emit:(Query.Action_list.t -> unit) ->
  unit ->
  Vm.t
(** [initial] must contain (at least) the view's base relations at source
    state [ss_0]. [compute_latency ~batch:1] is sampled per update.
    With a pooled [exec] (default sequential) the delta computation runs
    as a future on the domain pool, joined at the emit event; results and
    the simulated timeline are identical.

    [delta_fn], when given, replaces the per-view compiled delta plan as
    the delta computation (the shared-plan engine routes views through
    its DAG this way); it receives the manager's pre-transaction base
    cache and must return exactly what the plan would. *)
