(** The distributed warehouse assembly: N shards on one simulation.

    One global source population feeds one integrator; a {!Router} fans
    each numbered update's relevant-view set to the shards whose views
    it touches, over per-shard fault-injectable links; each {!Shard}
    runs its own complete MVC pipeline (view managers, SPA merge, VUT,
    store, submitter, serving layer, optional WAL). Cross-shard
    {!Union_view}s are served by stitching per-shard legs at a
    {!Global_cut} version vector; every served union read is recorded as
    a {!Consistency.Checker.cut_read} so the run's distributed
    certificate can be re-checked after the fact, and the existing SPA
    consistency ladder is applied to each shard's own commit history. *)

type config = {
  workload : Workload.Tenants.t;
  shards : int;
  arrival : Whips.System.arrival;
  latencies : Whips.System.latencies;
      (** [message], [compute], [commit], [merge] and [read] are used;
          the rest are ignored (no Strobe managers, no result cache). *)
  reliability : Whips.System.reliability;
      (** [Acked] wraps every integ->shard and manager->merge link in
          the ARQ layer; required for runs whose fault plan drops
          messages (under [Off] a dropped routed update is simply lost
          and the run converges to the wrong warehouse). *)
  fault_plan : Workload.Fault_plan.t;
      (** Applies to the warehouse's internal links ([integ->shard*],
          [*->merge]); the sources->integ feed is the ground-truth
          boundary and is never faulted. *)
  durable : bool;
      (** Give each shard a write-ahead log recording every WT before
          its store applies it. *)
  selfmaint : bool;
      (** Build each shard's managers as [Selfmaint_vm] (derived
          auxiliary projections) instead of [Complete_vm] (full
          replicas). Trace-identical (same action lists); the shard pays
          projected storage instead of replica storage. *)
  union_reads : int;
      (** Cross-shard union reads issued while the update stream runs
          (spread uniformly over the script horizon). One final read per
          union view is always taken after the drain, so the final
          stitched contents are part of every run's record. *)
  read_sessions : int;  (** Reader sessions the reads round-robin over. *)
  seed : int;
}

val default : ?shards:int -> Workload.Tenants.t -> config
(** 2 shards, uniform arrivals, default latencies, reliability off, no
    faults, no WAL, replica managers (no selfmaint), 8 mid-run reads
    over 2 sessions, seed 42. *)

type shard_result = {
  sh_id : int;
  sh_views : string list;
  sh_store : Warehouse.Store.t;
  sh_merge_events : int;
      (** Merge-server messages (RELs + action lists) this shard
          handled. *)
  sh_wts : int;  (** Warehouse transactions its merge emitted. *)
  sh_commits : int;
  sh_wal_appends : int;
}

type result = {
  config : config;
  sources : Source.Sources.t;
  transactions : Relational.Update.Transaction.t list;
  shards : shard_result list;
  unions : Union_view.t list;
  reads : Consistency.Checker.cut_read list;
      (** Every served union read (mid-run + final), completion order. *)
  metrics : Whips.Metrics.t;
  stuck : bool;
      (** The run failed to drain — only possible with faults under
          [reliability = Off] (or a link that gave up retransmitting). *)
}

val run : config -> result

val shard_verdicts : result -> (int * Consistency.Checker.verdict) list
(** The SPA consistency ladder applied to each non-empty shard's own
    commit history (its views, the full source schedule). *)

val certificate : result -> Consistency.Checker.distributed_certificate
(** Re-check every recorded union read against the recorded per-shard
    commit sequences (see
    {!Consistency.Checker.certify_distributed}). *)

val union_contents : result -> string -> Relational.Bag.t
(** Final stitched contents of a union view (legs read from the final
    shard stores). @raise Not_found on an unknown union name. *)

val merge_events_per_update : result -> float
(** Mean merge-server messages per source transaction per non-empty
    shard — the per-shard merge load the benchmark tracks as tenants
    scale. *)
