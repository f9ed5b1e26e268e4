(** Run metrics collected by the system assembly — the quantities the
    paper's Section 7 proposes to study: the effect of merging on view
    freshness, and the load at which the merge process becomes a
    bottleneck — plus the resilience counters (channel drops, retransmits,
    crash recoveries) folded in from the fault-injection layer. *)

type t = {
  staleness : Sim.Stats.Summary.t;
      (** Per covered update: warehouse commit time minus source commit
          time — how long the update's effect took to become visible. *)
  merge_held : Sim.Stats.Summary.t;
      (** Action lists held at the merge, sampled after each merge event. *)
  merge_live_rows : Sim.Stats.Summary.t;
      (** Live VUT rows, sampled after each merge event. *)
  merge_queue_depth : Sim.Stats.Summary.t;
      (** Messages queued (or in flight) at the merge servers, sampled
          after each merge event — the saturation signal of benchmark
          P2: a depth that grows with offered load means the merge can
          no longer keep up. *)
  merge_batch_size : Sim.Stats.Summary.t;
      (** Warehouse transactions released per ready run (sampled per
          non-empty drain) — the batch-size histogram of the merge fast
          path. *)
  merge_service_time : Sim.Stats.Summary.t;
      (** Latency charged per merge service event. Under the [Fused]
          policy one service event covers a whole queued batch, so the
          mean stays flat while per-message throughput rises. *)
  merge_runs : int Atomic.t;
      (** Ready runs released by the merge and planned as a unit by the
          commit submitter. *)
  coalesced_in : int Atomic.t;
      (** Action-list delta entries entering run coalescing. *)
  coalesced_out : int Atomic.t;
      (** Delta entries remaining after per-view signed-bag summing —
          [in - out] is the work cancellation the fast path saved. *)
  coalesce_fallbacks : int Atomic.t;
      (** Per-view groups applied sequentially because summing would
          have clamped (see {!Relational.Signed_bag.coalesce}). *)
  index_slots : Sim.Stats.Summary.t;
      (** Physical slot-table sizes of the memoized {!Relational.Bag_index}es
          of committed warehouse states, sampled per index at commit. *)
  index_live : Sim.Stats.Summary.t;
      (** Live entries per sampled index. *)
  vm_queue : Sim.Stats.Summary.t;
      (** Pending work across view managers, sampled on update routing. *)
  read_latency : Sim.Stats.Summary.t;
      (** Per served read: completion time minus arrival time (queueing
          at the session plus the read service latency). *)
  served_staleness : Sim.Stats.Summary.t;
      (** Per served read: completion time minus the served version's
          commit time — how old the data a client actually saw was. *)
  versions_retained : Sim.Stats.Summary.t;
      (** Versions held by the serving layer, sampled at each publish. *)
  versions_pinned : Sim.Stats.Summary.t;
      (** Versions under an active reader lease, sampled at each
          publish. *)
  transactions : int Atomic.t;  (** Source transactions executed. *)
  commits : int Atomic.t;  (** Warehouse transactions committed. *)
  actions_applied : int Atomic.t;
      (** Elementary view operations applied. *)
  mutable completed_at : float;  (** Simulated time when the run drained. *)
  msgs_dropped : int Atomic.t;
      (** Messages dropped by injected channel faults (all channels). *)
  retransmits : int Atomic.t;  (** Frames resent by reliable links. *)
  acks : int Atomic.t;  (** Acks sent by reliable links. *)
  nacks : int Atomic.t;  (** Gap nacks sent by reliable links. *)
  dup_frames_dropped : int Atomic.t;
      (** Duplicate frames discarded by reliable receivers. *)
  gave_up : int Atomic.t;
      (** Reliable senders that exhausted their retries (run is stuck). *)
  crashes : int Atomic.t;  (** View-manager crash events. *)
  recoveries : int Atomic.t;  (** Completed crash recoveries. *)
  reads : int Atomic.t;  (** Reads served by the snapshot-serving layer. *)
  cache_hits : int Atomic.t;
      (** Result-cache hits across all sessions. *)
  cache_misses : int Atomic.t;
  reads_clamped : int Atomic.t;
      (** Reads whose session guarantee (or pruned history) forced a
          newer version than the read asked for. *)
  shared_hits : int Atomic.t;
      (** Shared-plan engine demands served from a node's per-transaction
          memo — a delta some other view's pass already computed. *)
  shared_misses : int Atomic.t;
      (** Shared-plan engine demands that computed a fresh node delta. *)
  shared_rows : int Atomic.t;
      (** Delta rows folded into materialized intermediates — the
          engine's maintenance cost. *)
  memo_contention : int Atomic.t;
      (** Contended plan-memo shard-lock acquisitions during the run
          ({!Query.Compiled.memo_contention} delta). *)
  group_state_builds : int Atomic.t;
      (** [Group_by] node states built during the run by view managers
          and by aggregate result-cache entries
          ({!Query.Compiled.group_state_builds} delta): one per manager
          or entry and node unless a state was dropped. *)
  group_state_drops : int Atomic.t;
      (** Built node states dropped because a transaction's deletions
          clamped ({!Query.Compiled.group_state_drops} delta). *)
  group_rows : int Atomic.t;
      (** Member rows folded by [Group_by] maintenance
          ({!Query.Compiled.group_rows} delta): the refolds of stateful
          steps (a deleted Min/Max extreme, a changed float Sum or Avg)
          and both folds per affected group of the stateless rule. *)
  index_builds : int Atomic.t;
      (** Relation indexes built over a version's whole contents
          ({!Relational.Relation.index_builds} delta): the first probe of
          a base relation version whose index was not derived. *)
  index_derived : int Atomic.t;
      (** Indexes carried into a view manager's next cache version in
          O(|delta|) ({!Relational.Relation.index_derived} delta). *)
  index_flattens : int Atomic.t;
      (** Derived indexes whose overlay reached a quarter of their table
          and were rebuilt flat ({!Relational.Bag_index.flattens}
          delta). *)
  cache_refreshes : int Atomic.t;
      (** Result-cache entries advanced in place by incremental refresh
          at commit. *)
  cache_refresh_fallbacks : int Atomic.t;
      (** Touched cache entries left to invalidation because the
          commit's deltas were wider than the cached result. *)
  cache_deltas_carried : int Atomic.t;
      (** Per-view commit deltas the result cache read off the
          published version ({!Serve.Result_cache.stats}). *)
  cache_deltas_diffed : int Atomic.t;
      (** Per-view commit deltas the result cache recovered by diffing
          whole views, because the version carried none. *)
  cache_snapshots : int Atomic.t;
      (** Per-version results the result cache retained at the end of
          the run, across all its entries. *)
  routed_shards : Sim.Stats.Summary.t;
      (** Per routed update in a distributed run: how many warehouse
          shards its relevant-view set fanned out to (1 for a
          tenant-local update — the common case the router exploits). *)
  union_reads : int Atomic.t;
      (** Cross-shard union-view reads served through a global cut. *)
  union_read_latency : Sim.Stats.Summary.t;
      (** Per union read: completion time minus arrival time. *)
  source_queries : int Atomic.t;
      (** Compensation round trips to the sources (Strobe-style managers
          querying per relevant update, integrator catch-up fetches).
          Self-maintaining managers keep this at 0 on the steady-state
          path — the headline of the selfmaint bench. *)
  source_query_latency : Sim.Stats.Summary.t;
      (** Per source query: answer arrival minus request issue (both
          travel legs plus any modeled evaluation delay). *)
  aux_rows : int Atomic.t;
      (** Rows held in self-maintenance auxiliary relations at plan
          derivation, summed across views. *)
  aux_cells : int Atomic.t;
      (** Cells (rows x live arity) in the auxiliaries — the storage the
          warehouse pays to avoid the round trips. *)
  aux_saved_cells : int Atomic.t;
      (** Cells a full-replica cache ([Complete_vm]) would have held
          minus [aux_cells]: what the keyed projections saved. *)
}
(** Every integer counter is an [Atomic.t]: with [domains > 1] the
    maintenance runtime executes work on pool domains, and counters
    must tolerate increments from any of them. [completed_at] and the
    {!Sim.Stats.Summary.t} accumulators are only touched from the
    simulation (main) domain. *)

val create : unit -> t

val add : int Atomic.t -> int -> unit
(** [add counter n] atomically bumps a counter by [n]. *)

type kernel_counters
(** A snapshot of the process-wide query-kernel counters. *)

val kernel_counters : unit -> kernel_counters

val add_kernel_counters_since : t -> kernel_counters -> unit
(** Add what the kernel counters accrued since the snapshot to
    [memo_contention], [group_state_builds], [group_state_drops],
    [group_rows], [index_builds], [index_derived] and
    [index_flattens]. The counters are process-wide, so runs must not
    overlap for the attribution to be exact. *)

val throughput : t -> float
(** Source transactions per simulated second (0 for an instantaneous
    run). *)

val read_throughput : t -> float
(** Served reads per simulated second. *)

val cache_hit_ratio : t -> float
(** [hits / (hits + misses)]; 0 when no cache lookups happened. *)

val shared_hit_ratio : t -> float
(** Shared-plan engine [hits / (hits + misses)]; 0 when the engine was
    off or never demanded. *)

val coalesce_cancel_ratio : t -> float
(** [(coalesced_in - coalesced_out) / coalesced_in]: the fraction of
    delta entries run coalescing cancelled; 0 when nothing was
    coalesced. *)

val pp : Format.formatter -> t -> unit
