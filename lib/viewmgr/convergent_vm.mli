(** The convergence-only view manager (Section 6.3).

    "A view manager may only guarantee the convergence of the view it
    manages... the merge process can just pass along all ALs it received,
    and also guarantees the convergence of the warehouse views."

    This manager computes correct per-update deltas against a replica
    plan's cache and [Group_by] state ({!Selfmaint.Plan.replica},
    {!Selfmaint.Plan.step}) but emits each action list after an
    independently sampled delay straight onto the engine — deliberately
    {e not} through a FIFO channel — so lists may reach the merge out of order. Signed-bag deltas commute, so
    the view still converges to the correct final state, but intermediate
    warehouse states may be inconsistent. Pair it with the pass-through
    merge; the consistency oracle classifies the result as convergent but
    not strongly consistent. *)

val create :
  engine:Sim.Engine.t ->
  emit_delay:(unit -> float) ->
  initial:Relational.Database.t ->
  view:Query.View.t ->
  emit:(Query.Action_list.t -> unit) ->
  unit ->
  Vm.t
