(** The complete-N view manager (Section 6.3).

    "A view manager may be complete-N: it may process N source updates at
    a time and maintain the view consistently after every N updates." The
    manager accumulates exactly [n] relevant transactions, then computes
    one combined delta and emits one action list (state = id of the N-th).
    A trailing partial batch is only emitted on {!Vm.t.flush}.

    Because one action list covers N VUT rows, SPA cannot merge this
    manager's output; the system must run PA (the weakest-level rule of
    Section 6.3).

    Aggregate views: the manager keeps the plan's [Group_by] state next
    to its base cache and advances both per delta ({!Query.Delta.step}),
    so a group recompute reads the affected groups' members instead of
    the whole input. *)

val create :
  engine:Sim.Engine.t ->
  compute_latency:(batch:int -> float) ->
  ?exec:Parallel.Exec.t ->
  n:int ->
  initial:Relational.Database.t ->
  view:Query.View.t ->
  emit:(Query.Action_list.t -> unit) ->
  unit ->
  Vm.t
(** With a pooled [exec] (default sequential) the batch delta runs as a
    future on the domain pool, joined at the emit event.
    @raise Invalid_argument if [n < 1]. *)
