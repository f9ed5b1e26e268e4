(** Full-system assembly: the WHIPS-style warehouse of Figure 1 on the
    discrete-event simulator.

    [run] wires the pipeline — sources report committed transactions to the
    integrator over a FIFO channel; the integrator numbers them, sends
    [REL_i] to the merge process(es) and copies of [U_i] to the relevant
    view managers; view managers emit action lists to their merge over
    per-manager FIFO channels; merges emit warehouse transactions to the
    commit submitter — executes the scenario's script with the configured
    arrival process, drains the system, and returns everything the
    consistency oracle and the benchmarks need.

    Committed transactions are reported to the integrator in commit order
    (one shared FIFO), matching the paper's Section 2.1 assumption that the
    serializable source schedule coincides with the integrator's update
    numbering. *)

include module type of struct
  include Config
end
(** The run configuration, its defaults and the result records
    ({!Config}). *)

exception Stuck of string
(** The system failed to drain without an injected fault — always a bug. *)

val schedule_script :
  Sim.Engine.t ->
  Sim.Rng.t ->
  arrival ->
  Relational.Update.t list list ->
  execute:(Relational.Update.t list -> unit) ->
  float
(** Schedule each script entry at the next instant of the arrival
    process (drawn from the given RNG); returns the horizon, the last
    arrival instant. *)

val drain :
  Sim.Engine.t -> flushes:(unit -> unit) list -> drained:(unit -> bool) -> bool
(** Run the engine, flush, run again, until [drained ()] holds; false
    when it still does not after 1000 rounds (the run cannot make
    progress). *)

val run : config -> result
(** @raise Invalid_argument, before any engine, WAL or store is built,
    on a configuration [shared_plans] cannot serve (see the field), and
    on a process-crash fault outside the corner recovery supports: the
    pipelined runtime with the SPA merge, [Coalesced] merging, [Direct]
    REL routing, no [semantic_filter], [Complete_vm] or [Selfmaint_vm]
    managers and [Keep_all] store retention. Also refused: [Sequential]
    with faults, a fault plan, [Acked] reliability or [durable] (the
    strawman has none of those layers); a [Crash_vm] on a manager other
    than [Complete_vm], [Selfmaint_vm] or [Batching_vm]; and [reads]
    without a session. *)

val verdict : result -> Consistency.Checker.verdict
(** Run the consistency oracle on the recorded source and warehouse state
    sequences. *)

val verdict_with_witness :
  result -> Consistency.Checker.verdict * Consistency.Checker.witness option
(** The oracle verdict together with the per-state mapping to source
    states it found (see {!Consistency.Checker.witness}). *)

val view_contents : result -> string -> Relational.Bag.t
(** Final contents of a view at the warehouse. *)

val recovery_certificate : result -> Consistency.Checker.recovery_certificate
(** Judge the run's {e application} history across restarts: no committed
    application lost, none applied twice, and every monotonic-by-contract
    session's served versions nondecreasing (see
    {!Consistency.Checker.certify_recovery}). Expected applications are
    the syntactic relevance pairs — each source transaction crossed with
    the views whose definitions mention one of its base relations —
    which is exactly the action-list set complete managers emit, so the
    certificate is meaningful for the crash-fault configuration corner
    (and any other all-[Complete_vm], unfiltered run). *)

val fused_certificate : result -> Consistency.Checker.fused_certificate
(** Judge a [merge_batch = Fused] run's batching: every fused commit
    covers exactly its recorded parts, no source row was fused twice,
    the batches partition the merge's emission sequence, and replaying
    each batch's parts one by one from its recorded pre-state reproduces
    its recorded post-state (see
    {!Consistency.Checker.certify_fused}). Requires [Keep_all] store
    retention (the replay walks every commit).
    @raise Invalid_argument if the run did not use [Fused] or the
    commit history was pruned. *)
