type t = {
  staleness : Sim.Stats.Summary.t;
  merge_held : Sim.Stats.Summary.t;
  merge_live_rows : Sim.Stats.Summary.t;
  merge_queue_depth : Sim.Stats.Summary.t;
  merge_batch_size : Sim.Stats.Summary.t;
  merge_service_time : Sim.Stats.Summary.t;
  merge_runs : int Atomic.t;
  coalesced_in : int Atomic.t;
  coalesced_out : int Atomic.t;
  coalesce_fallbacks : int Atomic.t;
  index_slots : Sim.Stats.Summary.t;
  index_live : Sim.Stats.Summary.t;
  vm_queue : Sim.Stats.Summary.t;
  read_latency : Sim.Stats.Summary.t;
  served_staleness : Sim.Stats.Summary.t;
  versions_retained : Sim.Stats.Summary.t;
  versions_pinned : Sim.Stats.Summary.t;
  transactions : int Atomic.t;
  commits : int Atomic.t;
  actions_applied : int Atomic.t;
  mutable completed_at : float;
  msgs_dropped : int Atomic.t;
  retransmits : int Atomic.t;
  acks : int Atomic.t;
  nacks : int Atomic.t;
  dup_frames_dropped : int Atomic.t;
  gave_up : int Atomic.t;
  crashes : int Atomic.t;
  recoveries : int Atomic.t;
  reads : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  reads_clamped : int Atomic.t;
  shared_hits : int Atomic.t;
  shared_misses : int Atomic.t;
  shared_rows : int Atomic.t;
  memo_contention : int Atomic.t;
  group_state_builds : int Atomic.t;
  group_state_drops : int Atomic.t;
  group_rows : int Atomic.t;
  index_builds : int Atomic.t;
  index_derived : int Atomic.t;
  index_flattens : int Atomic.t;
  cache_refreshes : int Atomic.t;
  cache_refresh_fallbacks : int Atomic.t;
  cache_deltas_carried : int Atomic.t;
  cache_deltas_diffed : int Atomic.t;
  cache_snapshots : int Atomic.t;
  routed_shards : Sim.Stats.Summary.t;
  union_reads : int Atomic.t;
  union_read_latency : Sim.Stats.Summary.t;
  source_queries : int Atomic.t;
  source_query_latency : Sim.Stats.Summary.t;
  aux_rows : int Atomic.t;
  aux_cells : int Atomic.t;
  aux_saved_cells : int Atomic.t;
}

let create () =
  { staleness = Sim.Stats.Summary.create ();
    merge_held = Sim.Stats.Summary.create ();
    merge_live_rows = Sim.Stats.Summary.create ();
    merge_queue_depth = Sim.Stats.Summary.create ();
    merge_batch_size = Sim.Stats.Summary.create ();
    merge_service_time = Sim.Stats.Summary.create ();
    merge_runs = Atomic.make 0;
    coalesced_in = Atomic.make 0;
    coalesced_out = Atomic.make 0;
    coalesce_fallbacks = Atomic.make 0;
    index_slots = Sim.Stats.Summary.create ();
    index_live = Sim.Stats.Summary.create ();
    vm_queue = Sim.Stats.Summary.create ();
    read_latency = Sim.Stats.Summary.create ();
    served_staleness = Sim.Stats.Summary.create ();
    versions_retained = Sim.Stats.Summary.create ();
    versions_pinned = Sim.Stats.Summary.create ();
    transactions = Atomic.make 0; commits = Atomic.make 0;
    actions_applied = Atomic.make 0; completed_at = 0.0;
    msgs_dropped = Atomic.make 0; retransmits = Atomic.make 0;
    acks = Atomic.make 0; nacks = Atomic.make 0;
    dup_frames_dropped = Atomic.make 0; gave_up = Atomic.make 0;
    crashes = Atomic.make 0; recoveries = Atomic.make 0;
    reads = Atomic.make 0; cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0; reads_clamped = Atomic.make 0;
    shared_hits = Atomic.make 0; shared_misses = Atomic.make 0;
    shared_rows = Atomic.make 0; memo_contention = Atomic.make 0;
    group_state_builds = Atomic.make 0; group_state_drops = Atomic.make 0;
    group_rows = Atomic.make 0; index_builds = Atomic.make 0;
    index_derived = Atomic.make 0; index_flattens = Atomic.make 0;
    cache_refreshes = Atomic.make 0; cache_refresh_fallbacks = Atomic.make 0;
    cache_deltas_carried = Atomic.make 0; cache_deltas_diffed = Atomic.make 0;
    cache_snapshots = Atomic.make 0;
    routed_shards = Sim.Stats.Summary.create ();
    union_reads = Atomic.make 0;
    union_read_latency = Sim.Stats.Summary.create ();
    source_queries = Atomic.make 0;
    source_query_latency = Sim.Stats.Summary.create ();
    aux_rows = Atomic.make 0; aux_cells = Atomic.make 0;
    aux_saved_cells = Atomic.make 0 }

let add counter n = Atomic.fetch_and_add counter n |> ignore

type kernel_counters = {
  k_memo_contention : int;
  k_group_state_builds : int;
  k_group_state_drops : int;
  k_group_rows : int;
  k_index_builds : int;
  k_index_derived : int;
  k_index_flattens : int;
}

let kernel_counters () =
  { k_memo_contention = Query.Compiled.memo_contention ();
    k_group_state_builds = Query.Compiled.group_state_builds ();
    k_group_state_drops = Query.Compiled.group_state_drops ();
    k_group_rows = Query.Compiled.group_rows ();
    k_index_builds = Relational.Relation.index_builds ();
    k_index_derived = Relational.Relation.index_derived ();
    k_index_flattens = Relational.Bag_index.flattens () }

let add_kernel_counters_since t k0 =
  let k = kernel_counters () in
  add t.memo_contention (k.k_memo_contention - k0.k_memo_contention);
  add t.group_state_builds (k.k_group_state_builds - k0.k_group_state_builds);
  add t.group_state_drops (k.k_group_state_drops - k0.k_group_state_drops);
  add t.group_rows (k.k_group_rows - k0.k_group_rows);
  add t.index_builds (k.k_index_builds - k0.k_index_builds);
  add t.index_derived (k.k_index_derived - k0.k_index_derived);
  add t.index_flattens (k.k_index_flattens - k0.k_index_flattens)

let throughput t =
  if t.completed_at <= 0.0 then 0.0
  else float_of_int (Atomic.get t.transactions) /. t.completed_at

let read_throughput t =
  if t.completed_at <= 0.0 then 0.0
  else float_of_int (Atomic.get t.reads) /. t.completed_at

let cache_hit_ratio t =
  let total = Atomic.get t.cache_hits + Atomic.get t.cache_misses in
  if total = 0 then 0.0
  else float_of_int (Atomic.get t.cache_hits) /. float_of_int total

let shared_hit_ratio t =
  let total = Atomic.get t.shared_hits + Atomic.get t.shared_misses in
  if total = 0 then 0.0
  else float_of_int (Atomic.get t.shared_hits) /. float_of_int total

let coalesce_cancel_ratio t =
  let inn = Atomic.get t.coalesced_in in
  if inn = 0 then 0.0
  else
    float_of_int (inn - Atomic.get t.coalesced_out) /. float_of_int inn

let pp ppf t =
  Fmt.pf ppf
    "@[<v>txns=%d commits=%d actions=%d completed=%.3fs tput=%.2f/s@ \
     staleness: %a@ merge-held: %a@ vut-rows: %a@ vm-queue: %a@ \
     merge-fastpath: runs=%d coalesced=%d->%d (cancel %.2f) fallbacks=%d@ \
     merge-queue-depth: %a@ merge-batch-size: %a@ merge-service: %a@ \
     index-occupancy: slots: %a live: %a@ \
     resilience: dropped=%d retx=%d acks=%d nacks=%d dups=%d gave-up=%d \
     crashes=%d recoveries=%d@ \
     serving: reads=%d rtput=%.2f/s cache=%d/%d clamped=%d \
     refreshed=%d refresh-fallbacks=%d deltas-carried=%d deltas-diffed=%d snapshots=%d@ \
     shared-plans: hits=%d/%d rows-maintained=%d memo-contention=%d@ \
     group-state: builds=%d drops=%d rows-folded=%d index-builds=%d \
     index-derived=%d index-flattens=%d@ \
     distributed: union-reads=%d shard-fanout: %a@ \
     sources: queries=%d latency: %a@ \
     selfmaint: aux-rows=%d aux-cells=%d saved-cells=%d@ \
     read-latency: %a@ served-staleness: %a@ versions-retained: %a@ \
     versions-pinned: %a@]"
    (Atomic.get t.transactions) (Atomic.get t.commits)
    (Atomic.get t.actions_applied) t.completed_at (throughput t)
    Sim.Stats.Summary.pp t.staleness Sim.Stats.Summary.pp t.merge_held
    Sim.Stats.Summary.pp t.merge_live_rows Sim.Stats.Summary.pp t.vm_queue
    (Atomic.get t.merge_runs)
    (Atomic.get t.coalesced_in) (Atomic.get t.coalesced_out)
    (coalesce_cancel_ratio t)
    (Atomic.get t.coalesce_fallbacks)
    Sim.Stats.Summary.pp t.merge_queue_depth
    Sim.Stats.Summary.pp t.merge_batch_size
    Sim.Stats.Summary.pp t.merge_service_time
    Sim.Stats.Summary.pp t.index_slots
    Sim.Stats.Summary.pp t.index_live
    (Atomic.get t.msgs_dropped) (Atomic.get t.retransmits) (Atomic.get t.acks)
    (Atomic.get t.nacks)
    (Atomic.get t.dup_frames_dropped)
    (Atomic.get t.gave_up) (Atomic.get t.crashes) (Atomic.get t.recoveries)
    (Atomic.get t.reads) (read_throughput t)
    (Atomic.get t.cache_hits)
    (Atomic.get t.cache_hits + Atomic.get t.cache_misses)
    (Atomic.get t.reads_clamped)
    (Atomic.get t.cache_refreshes)
    (Atomic.get t.cache_refresh_fallbacks)
    (Atomic.get t.cache_deltas_carried)
    (Atomic.get t.cache_deltas_diffed)
    (Atomic.get t.cache_snapshots)
    (Atomic.get t.shared_hits)
    (Atomic.get t.shared_hits + Atomic.get t.shared_misses)
    (Atomic.get t.shared_rows)
    (Atomic.get t.memo_contention)
    (Atomic.get t.group_state_builds) (Atomic.get t.group_state_drops)
    (Atomic.get t.group_rows)
    (Atomic.get t.index_builds) (Atomic.get t.index_derived)
    (Atomic.get t.index_flattens)
    (Atomic.get t.union_reads)
    Sim.Stats.Summary.pp t.routed_shards
    (Atomic.get t.source_queries)
    Sim.Stats.Summary.pp t.source_query_latency
    (Atomic.get t.aux_rows) (Atomic.get t.aux_cells)
    (Atomic.get t.aux_saved_cells)
    Sim.Stats.Summary.pp t.read_latency Sim.Stats.Summary.pp
    t.served_staleness Sim.Stats.Summary.pp t.versions_retained
    Sim.Stats.Summary.pp t.versions_pinned
