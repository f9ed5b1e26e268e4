(* The run configuration, its defaults and the records a run returns:
   shared by every process component and re-exported by {!System}. *)

type vm_kind =
  | Complete_vm
  | Selfmaint_vm
      (** Complete, self-maintaining: the manager derives warehouse-local
          auxiliary relations (base-table replicas or keyed projections of
          join partners — {!Selfmaint.Derive}) and answers every update
          from them, emitting the same action lists as [Complete_vm] with
          zero source round trips on the steady-state path. Crash
          recovery replays the integrator log over the projected
          auxiliaries (from the auxiliary WAL checkpoint when durable),
          never re-querying the sources. *)
  | Batching_vm  (** Strongly consistent, greedy batching. *)
  | Strobe_vm  (** Strongly consistent, source-querying. *)
  | Periodic_vm of float  (** Refresh period (simulated seconds). *)
  | Convergent_vm
  | Complete_n_vm of int
  | Derived_vm of {
      aux : Query.View.t list;
      over_aux : Query.Algebra.t;
    }
      (** Maintain the view through materialized auxiliary views
          (references [12]/[8]; see {!Viewmgr.Derived_vm}). Complete. *)

type merge_kind =
  | Auto
      (** Choose per Section 6.3 from the weakest view-manager level:
          all complete -> SPA; any strongly-consistent/complete-N -> PA;
          any convergent -> pass-through. *)
  | Force_spa
  | Force_pa
  | Force_passthrough
      (** The MVC-violating baseline / convergent merge. *)
  | Force_holdall
      (** Section 4.4's non-prompt strawman: hold every action list until
          the end of the stream, then release row by row. Complete, but
          the promptness baseline for the freshness benchmarks. *)
  | Sequential
      (** The Section 1.1 strawman: one process computes every view's
          delta for an update, one update at a time, bypassing view
          managers and merge entirely. Complete, but with no
          concurrency. *)

(** How [REL_i] reaches the merge (Section 3.2): directly from the
    integrator, or carried by a relevant view manager and forwarded with
    its action lists — fewer messages, but RELs can trail other managers'
    lists, exercising the merge's buffering. *)
type rel_routing = Direct | Via_manager

type arrival =
  | All_at_once  (** Execute the whole script at time 0 (drain test). *)
  | Uniform of float  (** Fixed inter-arrival gap. *)
  | Poisson of float  (** Rate (transactions per simulated second). *)

type latencies = {
  message : float;  (** Mean channel latency (exponential). *)
  compute : float;  (** Mean per-update view-manager delta computation. *)
  commit : float;  (** Mean warehouse commit latency. *)
  query_roundtrip : float;  (** Mean source query round trip (Strobe). *)
  merge : float;  (** Mean merge-process handling cost per message; the
                      merge is a single-threaded server, so this is what
                      eventually saturates it (benchmark P2). *)
  read : float;  (** Mean per-read service cost at a reader session
                     (result-cache miss: the evaluation kernel runs). *)
  read_hit : float;
      (** Mean per-read service cost when the shared result cache will
          serve the read (no evaluation) — much cheaper than [read]. *)
}

let default_latencies =
  { message = 0.002; compute = 0.01; commit = 0.005; query_roundtrip = 0.02;
    merge = 0.0005; read = 0.005; read_hit = 0.0005 }

(** The read workload served by the snapshot-serving subsystem
    ({!Serve}): a population of reader sessions, an arrival process for
    their reads, and the serving policy knobs. Reads are scheduled
    independently of the update script, so read:write ratio sweeps just
    vary [n_reads] / [read_arrival] against the scenario. *)
type read_profile = {
  sessions : (Serve.Session.guarantee * int) list;
      (** Population: how many sessions per guarantee. Each session is
          one client connection; its reads are served one at a time. *)
  read_arrival : arrival;  (** Arrival process across the population. *)
  n_reads : int;
  as_of_fraction : float;
      (** Fraction of reads that are historical ([as_of]) rather than
          current. *)
  as_of_lag : float;
      (** Historical reads ask for an instant uniform in
          [now - as_of_lag, now]. *)
  read_cache : bool;  (** Share a {!Serve.Result_cache} across sessions. *)
  cache_refresh : bool;
      (** On each commit, advance still-valid cached results in place by
          pushing the commit's per-view deltas through each cached
          query's delta plan ({!Serve.Result_cache.commit}) instead of
          only invalidating them. Exact — a refreshed hit is bit-for-bit
          a recompute — with automatic fallback to invalidation when the
          deltas are wider than the cached result. On by default. *)
  serve_retention : Serve.Version_manager.retention;
  queries : Query.Algebra.t list;
      (** Query mix, drawn uniformly; [[]] means one whole-view query
          per scenario view. *)
}

(** Six sessions (two per guarantee), 100 Poisson reads at 200/s, 25%
    historical reads up to 0.2 s back, cache on, keep-last-64
    retention. *)
let default_reads =
  { sessions =
      [ (Serve.Session.Latest, 2); (Serve.Session.Monotonic_reads, 2);
        (Serve.Session.Bounded_staleness 0.1, 2) ];
    read_arrival = Poisson 200.0;
    n_reads = 100;
    as_of_fraction = 0.25;
    as_of_lag = 0.2;
    read_cache = true;
    cache_refresh = true;
    serve_retention = Serve.Version_manager.Keep_last 64;
    queries = [] }

(** Structured faults for the resilience tests.

    [Drop_action_list] loses the [nth] physical message on a view
    manager's action-list channel (injected in the channel layer, so the
    channel's [dropped] counter stays truthful). With reliability off the
    painting algorithms then either hold every dependent row forever
    (progress stops but nothing wrong is merged), raise
    [Vut.Protocol_error] (SPA), or — the dangerous case — silently
    converge to a wrong warehouse (PA); with reliability on the loss is
    detected and repaired by nack/retransmit.

    [Crash_vm] kills the view manager of [view] at the moment it would
    emit its [at_event]-th action list, losing that list and all of the
    manager's in-memory state. With [reliability = Acked] the manager
    restarts after [restart_after] simulated seconds, re-handshakes with
    the merge via an epoch number, learns the merge's watermark for its
    view, replays the integrator's retained update log to re-derive its
    cache (and its [Group_by] state) and the missing action lists, and
    resumes; only the [Complete_vm], [Selfmaint_vm] and [Batching_vm]
    managers support this (log-replay recovery over their
    {!Selfmaint.Plan}). With reliability off the manager stays dead
    (stuck-but-safe).

    The process crash faults kill one of the three stateful singleton
    processes on the [at_event]-th message it handles (the message is
    lost with it), wiping all of its in-memory state:

    - [Crash_merge]: the merge layer loses its VUTs, reorderers, service
      queues, buffered WTs and watermark table. Recovery restarts fresh
      merge processes, transfers the REL sets of every unsubmitted row
      from the integrator's retained log, and demands a resync from
      every view manager, which replays its action lists above the
      submitted watermark.
    - [Crash_integrator]: the integrator loses its numbering position
      and retained log. Recovery replays its checkpoint + WAL, re-routes
      the unsubmitted suffix of the restored log (receivers dedup), and
      re-fetches from the sources anything at or above the restored
      numbering position.
    - [Crash_warehouse]: the store and submitter queue die. Recovery
      replays the warehouse checkpoint + WAL into the store, republishes
      the restored version history to the serving layer (reads are
      frozen, not failed, during the outage), and then performs the
      merge restart above (submitted-but-uncommitted WTs died in the
      submitter and must be re-derived).

    Process crash runs require [Acked] reliability to recover (under
    [Off] the process stays dead: stuck-but-safe), and are restricted to
    the configuration corner whose invariants the protocol leans on:
    SPA merge, [Complete_vm] managers, [Direct] REL routing, no semantic
    filter, [Keep_all] store retention. The durable layer (WALs and
    checkpoints, see {!durability}) is forced on. *)
type fault =
  | Drop_action_list of { view : string; nth : int }
  | Crash_vm of { view : string; at_event : int; restart_after : float }
  | Crash_merge of { at_event : int; restart_after : float }
  | Crash_integrator of { at_event : int; restart_after : float }
  | Crash_warehouse of { at_event : int; restart_after : float }

(** The delivery layer under the system's channels. [Off] is the paper's
    assumption of reliable FIFO delivery — faults then corrupt or stall.
    [Acked params] wraps every inter-process channel in the
    {!Sim.Reliable} ARQ layer (sequence numbers, dedup, cumulative acks,
    NACK-on-gap, timeout retransmit with capped jittered backoff), which
    restores the MVC guarantees under message loss and duplication. *)
type reliability = Off | Acked of Sim.Reliable.params

(** Tuning for the durable layer (write-ahead logs + checkpoints) behind
    the warehouse and the integrator. The warehouse WAL records every WT
    immediately before the store applies it and syncs per append (the
    write-ahead discipline); the integrator WAL records every stamped
    transaction with its REL set under group commit. *)
type durability = {
  checkpoint_every : int;
      (** Warehouse checkpoint cadence, in commits. Each checkpoint
          atomically replaces the checkpoint slot with the full commit
          history and truncates the WAL. *)
  integ_checkpoint_every : int;
      (** Integrator checkpoint cadence, in ingested transactions. *)
  group_commit : int;
      (** Integrator WAL group-commit batch: a crash can lose up to a
          batch of unsynced appends (recovered by re-fetching from the
          sources). *)
  replay_latency : float;
      (** Simulated seconds charged per WAL-tail record replayed during
          recovery — the knob the recovery-time-vs-checkpoint-interval
          experiment sweeps. *)
}

(** Checkpoint every 8 commits / 16 ingests, group commit 4, zero replay
    latency. *)
let default_durability =
  { checkpoint_every = 8; integ_checkpoint_every = 16; group_commit = 4;
    replay_latency = 0.0 }

(** How a merge's ready run — the warehouse transactions one merge step
    releases together — reaches the commit submitter (the merge fast
    path).

    [Coalesced] (the default) hands the run to the submitter as a unit
    ({!Warehouse.Submitter.submit_run}): the store plans the whole run's
    per-view timelines in one pass at the run's first commit, summing
    each view's action-list deltas ({!Relational.Signed_bag.coalesce})
    and fanning the independent per-view walks across the domain pool.
    Every WT keeps its own commit event and latency draw, so this is
    pure CPU batching: each committed state is the one per-item
    {!Warehouse.Store.apply} would reach. In process-crash runs each WT
    of the run first passes the warehouse's receive guards; a crash
    inside the run loses the whole run, and recovery re-derives it.

    [Fused] is the opt-in behavioral change: each merge service event
    covers the whole queued backlog for one latency sample, and the
    resulting ready run commits as one batched warehouse transaction
    (BWT) — the paper's batching consistency level (Section 4.3), which
    skips the run's intermediate warehouse states and therefore trades
    completeness for throughput. Certified by {!fused_certificate};
    rejected in process-crash runs (recovery accounts for completed
    work per-row). *)
type merge_batch = Coalesced | Fused

(** Tenant sharding (Section 6.1, Figure 3): the views are partitioned
    over [shards] warehouse shards, each a set of merge groups with its
    own warehouse and published version history, and cross-shard union
    views are read by stitching their legs at a version-vector cut
    ({!Dist.Global_cut}). Views sharing a base relation must share a
    shard, so no update's merge work spans shards. *)
type sharding = {
  shards : int;
  tenant_of : string -> int;
      (** A view's owning tenant; the view lives on shard
          [tenant mod shards] ({!Dist.Router}). *)
  union_views : (string * string list) list;
      (** Cross-shard union views as (name, leg view names), read 8
          times spread over the script horizon and once each after the
          drain, round-robin over 2 reader sessions. *)
}

type config = {
  scenario : Workload.Scenarios.t;
  vm_kind : vm_kind;
  vm_overrides : (string * vm_kind) list;
      (** Per-view exceptions to [vm_kind] (mixed systems, Section 6.3). *)
  merge_kind : merge_kind;
  merge_batch : merge_batch;
      (** Merge fast path (see {!merge_batch}); [Coalesced] by default. *)
  submit : Warehouse.Submitter.policy;
  arrival : arrival;
  latencies : latencies;
  merge_groups : int option;
      (** [Some k]: distribute the merge over up to [k] processes along
          the disjoint-base-relation partition (Section 6.1). [None]: one
          merge process. *)
  semantic_filter : bool;  (** Integrator irrelevance filtering. *)
  rel_routing : rel_routing;
  optimize_views : bool;
      (** Rewrite view definitions with {!Query.Optimize.optimize} before
          handing them to the view managers (semantics-preserving;
          micro-benchmarked in the ablation). *)
  faults : fault list;  (** Structured faults (see {!fault}). *)
  fault_plan : Workload.Fault_plan.t;
      (** Channel-level fault schedule: deterministic nth-message rules
          and seeded random drop/duplicate/delay rules, composable and
          matched by channel-name pattern. Applies to the warehouse's
          internal messaging only — the [sources->integ] feed is the
          ground-truth boundary (the paper assumes sources report every
          committed transaction) and is never faulted. *)
  reliability : reliability;
  durable : durability option;
      (** [Some d] turns the durable layer on with tuning [d]; [None]
          (the default) leaves it off unless a process crash fault is
          configured, which forces it on with {!default_durability}. *)
  reads : read_profile option;
      (** [Some profile] attaches the snapshot-serving subsystem: every
          warehouse commit is published as a {!Serve.Version_manager}
          version and the profile's reader sessions are run against it
          concurrently with the update stream. [None] (the default)
          disables serving entirely. *)
  store_retention : Warehouse.Store.retention;
      (** Retention for the warehouse commit history (satellite of the
          serving work; independent of [serve_retention]). The
          consistency {!verdict} replays the full state sequence, so it
          requires [Keep_all] — prune only in serving/throughput
          experiments that skip the oracle. *)
  record_timeline : bool;
      (** Record a human-readable event log (source commits, REL routing,
          action-list deliveries, warehouse commits) in the result; used
          by the CLI's [--timeline] and by debugging sessions. *)
  parallel : Parallel.Config.t;
      (** The multicore maintenance runtime. [domains > 1] runs per-view
          delta evaluation, sharded join kernels and per-group merge work
          on a shared domain pool; [domains = 1] (the default unless
          [MVC_DOMAINS] is set) executes everything inline. The knob
          never touches simulated time or RNG streams, so every domain
          count yields identical commits, reads and verdicts —
          [model_overlap] is the separate latency-model switch. *)
  shared_plans : bool;
      (** Share the views' common subplans ({!Selfmaint.Plan.share}):
          every join-bearing subexpression that two or more view
          definitions contain is maintained once per update, in a slot
          every plan containing it reads, instead of once per view.
          Per-view deltas are bit-identical to the unshared path, so
          commits, reads and verdicts are unchanged. A slot advances one
          transaction at a time, in id order, for every view reading
          it, so {!run} raises [Invalid_argument], with the reason, on
          a configuration that breaks this: faults or a fault plan,
          [semantic_filter], or, in the pipelined runtime, a view whose
          manager is not [Complete_vm]. The sequential strawman runs no
          managers and shares under any [vm_kind]. Off by default. *)
  sharding : sharding option;
      (** [Some sh] partitions the views over [sh.shards] warehouse
          shards (see {!sharding}); [None] (the default) runs one
          warehouse. *)
  seed : int;
}

(** [parallel] defaults to {!Parallel.Config.default}[ ()], i.e. the
    [MVC_DOMAINS] / [MVC_SHARDS] environment knobs. *)
let default scenario =
  { scenario; vm_kind = Complete_vm; vm_overrides = []; merge_kind = Auto;
    merge_batch = Coalesced;
    submit = Warehouse.Submitter.Serial; arrival = Uniform 0.05;
    latencies = default_latencies; merge_groups = None;
    semantic_filter = false; rel_routing = Direct; optimize_views = false;
    faults = []; fault_plan = Workload.Fault_plan.empty; reliability = Off;
    durable = None; reads = None;
    store_retention = Warehouse.Store.Keep_all;
    record_timeline = false; parallel = Parallel.Config.default ();
    shared_plans = false; sharding = None; seed = 1 }

(** A multi-tenant workload's placement and union views over [shards]
    (default 2) shards. *)
let tenant_sharding ?(shards = 2) (w : Workload.Tenants.t) =
  { shards; tenant_of = Workload.Tenants.tenant_of w;
    union_views = w.Workload.Tenants.unions }

(** One served read, recorded in arrival order. [read_state] is the
    exact warehouse state the read was evaluated against (persistent, so
    holding it is free) — tests replay queries over it with the naive
    evaluator to cross-check the compiled/cached read path, and feed the
    deduplicated states to {!Consistency.Checker} to prove every served
    snapshot is consistent. *)
type read_record = {
  read_session : int;
  read_guarantee : Serve.Session.guarantee;
  read_query : Query.Algebra.t;
  read_as_of : float option;  (** Requested instant for historical reads. *)
  read_arrived : float;
  read_served : float;
  read_version : int;
  read_version_time : float;
  read_staleness : float;
  read_cache_hit : bool;
  read_clamped : bool;
  read_state : Relational.Database.t;
  read_result : Relational.Bag.t;
}

type serving = {
  version_manager : Serve.Version_manager.t;  (** Post-run state. *)
  result_cache : Serve.Result_cache.t option;
  reads_served : read_record list;
      (** In completion order (per session this equals arrival order —
          each session serves its reads one at a time). *)
}

(** What the durable layer did during the run — both WALs summed, plus
    the recovery counters. *)
type durability_report = {
  wal_appends : int;
  wal_syncs : int;
  wal_bytes : int;  (** Bytes made durable (the WAL-overhead headline). *)
  wal_checkpoints : int;
  wal_truncated : int;
      (** Durable records discarded by checkpoint truncation. *)
  torn_discarded : int;
      (** Torn/corrupt WAL tails detected and cut by recovery. *)
  wal_replayed : int;  (** WAL-tail records replayed by recoveries. *)
  commits_restored : int;
      (** Commits re-applied to the store by warehouse recovery. *)
  dup_wts_dropped : int;
      (** Recovery-re-derived WTs dropped at submit because every row
          was already committed (the idempotence guard). *)
  recovery_time : float;
      (** Total simulated seconds from crash to recovered, summed over
          recoveries. *)
}

(** One shard of a sharded run. *)
type shard_result = {
  sh_id : int;
  sh_views : string list;
  sh_store : Warehouse.Store.t;
  sh_merge_events : int;
      (** Messages (RELs + action lists) its merge groups handled. *)
  sh_wts : int;  (** Warehouse transactions its merge groups emitted. *)
  sh_wal_appends : int;  (** WT records its warehouse WAL appended. *)
}

type sharded = {
  per_shard : shard_result list;  (** Ascending by shard id. *)
  unions : Dist.Union_view.t list;
  cut_reads : Consistency.Checker.cut_read list;
      (** Every served union read (mid-run + final), in issue order. *)
}

type result = {
  config : config;
  store : Warehouse.Store.t;
      (** Shard 0's store in a sharded run; the single-store accessors
          ({!System.verdict} and the like) refuse a run of more than one
          shard. *)
  sources : Source.Sources.t;
  transactions : Relational.Update.Transaction.t list;
  metrics : Metrics.t;
  merge_algorithm : string;
  timeline : (float * string) list;
      (** Chronological event log (empty unless [record_timeline]). *)
  stuck : bool;
      (** True when an injected fault prevented the run from draining
          (only possible with faults configured; otherwise {!Stuck}
          raises). *)
  serving : serving option;
      (** Present iff [config.reads] was set. *)
  durability : durability_report option;
      (** Present iff the durable layer was on (explicitly via
          [config.durable] or forced by a process crash fault). *)
  fused : (int list list * (int list * Query.Action_list.t list) list list)
            option;
      (** Present iff the run used [merge_batch = Fused]: the merge's
          emission sequence (per emitted WT, in order, its covered
          rows) and, per fused batch in release order, the constituent
          (rows, action lists) parts — the raw material
          {!fused_certificate} feeds to the checker. *)
  sharded : sharded option;  (** Present iff [config.sharding] was set. *)
}

