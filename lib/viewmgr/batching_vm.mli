(** The strongly consistent (batching) view manager.

    "A strongly consistent view manager can batch multiple updates, [U_i]
    through [U_{i+k}], bringing the warehouse from a state consistent with
    the sources before [U_i] to a state consistent with the sources after
    [U_{i+k}]" (Section 2.2). This manager is a greedy-batching single
    server: when it finishes one delta computation it drains its whole
    input queue into the next batch, computes one combined delta against
    its base-relation cache, and emits a single action list whose [state]
    is the last update in the batch. Under load, batches grow and action
    lists become intertwined — exactly the input class the Painting
    Algorithm exists for; when the system is idle, batches have size one
    and the manager behaves like a complete one. [max_batch] caps the
    batch size.

    Aggregate views: the manager keeps the plan's [Group_by] state next
    to its base cache and advances both per delta ({!Query.Delta.step}),
    so a group recompute reads the affected groups' members instead of
    the whole input. *)

val create :
  engine:Sim.Engine.t ->
  compute_latency:(batch:int -> float) ->
  ?exec:Parallel.Exec.t ->
  ?max_batch:int ->
  initial:Relational.Database.t ->
  view:Query.View.t ->
  emit:(Query.Action_list.t -> unit) ->
  unit ->
  Vm.t
(** With a pooled [exec] (default sequential) the batch delta runs as a
    future on the domain pool, joined at the emit event; results and the
    simulated timeline are identical. *)
