open Relational

type vm_kind =
  | Complete_vm
  | Selfmaint_vm
  | Batching_vm
  | Strobe_vm
  | Periodic_vm of float
  | Convergent_vm
  | Complete_n_vm of int
  | Derived_vm of {
      aux : Query.View.t list;
      over_aux : Query.Algebra.t;
    }

type merge_kind =
  | Auto
  | Force_spa
  | Force_pa
  | Force_passthrough
  | Force_holdall
  | Sequential

type rel_routing = Direct | Via_manager

type arrival = All_at_once | Uniform of float | Poisson of float

type fault =
  | Drop_action_list of { view : string; nth : int }
  | Crash_vm of { view : string; at_event : int; restart_after : float }
  | Crash_merge of { at_event : int; restart_after : float }
  | Crash_integrator of { at_event : int; restart_after : float }
  | Crash_warehouse of { at_event : int; restart_after : float }

type reliability = Off | Acked of Sim.Reliable.params

type durability = {
  checkpoint_every : int;
  integ_checkpoint_every : int;
  group_commit : int;
  replay_latency : float;
}

let default_durability =
  { checkpoint_every = 8; integ_checkpoint_every = 16; group_commit = 4;
    replay_latency = 0.0 }

type latencies = {
  message : float;
  compute : float;
  commit : float;
  query_roundtrip : float;
  merge : float;
  read : float;
  read_hit : float;
}

let default_latencies =
  { message = 0.002; compute = 0.01; commit = 0.005; query_roundtrip = 0.02;
    merge = 0.0005; read = 0.005; read_hit = 0.0005 }

type read_profile = {
  sessions : (Serve.Session.guarantee * int) list;
  read_arrival : arrival;
  n_reads : int;
  as_of_fraction : float;
  as_of_lag : float;
  read_cache : bool;
  cache_refresh : bool;
  serve_retention : Serve.Version_manager.retention;
  queries : Query.Algebra.t list;
}

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

(* How a merge's ready run reaches the commit submitter. [Coalesced]
   (the default) hands the run to the submitter as a unit so it can plan
   the whole run's store work in one coalesced pass, while every WT
   keeps its own commit. [Fused] additionally releases the run as one
   batched warehouse transaction (BWT) after a batched merge service
   event — the paper's batching consistency level, which changes timing
   and skips the run's intermediate states. *)
type merge_batch = Coalesced | Fused

type config = {
  scenario : Workload.Scenarios.t;
  vm_kind : vm_kind;
  vm_overrides : (string * vm_kind) list;
  merge_kind : merge_kind;
  merge_batch : merge_batch;
  submit : Warehouse.Submitter.policy;
  arrival : arrival;
  latencies : latencies;
  merge_groups : int option;
  semantic_filter : bool;
  rel_routing : rel_routing;
  optimize_views : bool;
  faults : fault list;
  fault_plan : Workload.Fault_plan.t;
  reliability : reliability;
  durable : durability option;
  reads : read_profile option;
  store_retention : Warehouse.Store.retention;
  record_timeline : bool;
  parallel : Parallel.Config.t;
  shared_plans : bool;
  seed : int;
}

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
    shared_plans = false; seed = 1 }

let faultless cfg =
  cfg.faults = [] && Workload.Fault_plan.is_empty cfg.fault_plan

(* Process-level crash faults (merge / integrator / warehouse): these wipe
   a whole process's in-memory state and require the durable layer for
   recovery, unlike message-level faults and Crash_vm (whose recovery is
   log replay from the live integrator). *)
let process_crash_faults cfg =
  List.exists
    (function
      | Crash_merge _ | Crash_integrator _ | Crash_warehouse _ -> true
      | Drop_action_list _ | Crash_vm _ -> false)
    cfg.faults

type read_record = {
  read_session : int;
  read_guarantee : Serve.Session.guarantee;
  read_query : Query.Algebra.t;
  read_as_of : float option;
  read_arrived : float;
  read_served : float;
  read_version : int;
  read_version_time : float;
  read_staleness : float;
  read_cache_hit : bool;
  read_clamped : bool;
  read_state : Database.t;
  read_result : Bag.t;
}

type serving = {
  version_manager : Serve.Version_manager.t;
  result_cache : Serve.Result_cache.t option;
  reads_served : read_record list;
}

type durability_report = {
  wal_appends : int;
  wal_syncs : int;
  wal_bytes : int;
  wal_checkpoints : int;
  wal_truncated : int;
  torn_discarded : int;
  wal_replayed : int;
  commits_restored : int;
  dup_wts_dropped : int;
  recovery_time : float;
}

type result = {
  config : config;
  store : Warehouse.Store.t;
  sources : Source.Sources.t;
  transactions : Update.Transaction.t list;
  metrics : Metrics.t;
  merge_algorithm : string;
  timeline : (float * string) list;
  stuck : bool;
  serving : serving option;
  durability : durability_report option;
  fused : (int list list * (int list * Query.Action_list.t list) list list)
            option;
      (* Recorded under [merge_batch = Fused]: the merge's emission
         sequence (per emitted WT, its covered rows, in order) and, per
         fused batch in release order, its constituent parts — the raw
         material of {!Consistency.Checker.certify_fused}. *)
}

exception Stuck of string

let kind_of cfg view =
  match List.assoc_opt (Query.View.name view) cfg.vm_overrides with
  | Some kind -> kind
  | None -> cfg.vm_kind

(* The kinds the plan-driven manager runs: the plan its cache follows
   and how many queued transactions one step takes. *)
let plan_shape = function
  | Complete_vm -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.One)
  | Selfmaint_vm -> (Selfmaint.Plan.create, Viewmgr.Plan_vm.One)
  | Batching_vm -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.Greedy)
  | Complete_n_vm n -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.Exactly n)
  | Strobe_vm | Periodic_vm _ | Convergent_vm | Derived_vm _ ->
    invalid_arg "System.plan_shape: not a plan-driven manager"

let level_of = function
  | (Complete_vm | Selfmaint_vm | Batching_vm | Complete_n_vm _) as kind ->
    Viewmgr.Plan_vm.level (snd (plan_shape kind))
  | Derived_vm _ -> Viewmgr.Vm.Complete
  | Strobe_vm | Periodic_vm _ -> Viewmgr.Vm.Strongly_consistent
  | Convergent_vm -> Viewmgr.Vm.Convergent

(* Section 6.3: "it is always possible to use the merge algorithm
   corresponding to the view manager guaranteeing the weakest level of
   consistency". *)
let auto_algorithm levels =
  let weakest acc level =
    match (acc, level) with
    | Mvc.Merge.Passthrough, _ | _, Viewmgr.Vm.Convergent ->
      Mvc.Merge.Passthrough
    | Mvc.Merge.Pa, _
    | _, (Viewmgr.Vm.Strongly_consistent | Viewmgr.Vm.Complete_n _) ->
      Mvc.Merge.Pa
    | Mvc.Merge.Spa, Viewmgr.Vm.Complete -> Mvc.Merge.Spa
    | Mvc.Merge.Holdall, _ ->
      (* Never chosen automatically; present for exhaustiveness. *)
      Mvc.Merge.Holdall
  in
  List.fold_left weakest Mvc.Merge.Spa levels

let algorithm_for cfg =
  match cfg.merge_kind with
  | Auto ->
    auto_algorithm
      (List.map
         (fun v -> level_of (kind_of cfg v))
         cfg.scenario.Workload.Scenarios.views)
  | Force_spa -> Mvc.Merge.Spa
  | Force_pa -> Mvc.Merge.Pa
  | Force_passthrough -> Mvc.Merge.Passthrough
  | Force_holdall -> Mvc.Merge.Holdall
  | Sequential -> assert false

(* Schedule the scenario script along the configured arrival process. *)
let schedule_script engine rng cfg ~execute =
  let clock = ref 0.0 in
  List.iter
    (fun updates ->
      let at =
        match cfg.arrival with
        | All_at_once -> 0.0
        | Uniform gap ->
          clock := !clock +. gap;
          !clock
        | Poisson rate ->
          clock := !clock +. Sim.Rng.exponential rng ~mean:(1.0 /. rate);
          !clock
      in
      Sim.Engine.schedule_at engine at (fun () -> execute updates))
    cfg.scenario.Workload.Scenarios.script

(* Returns false when the system cannot make progress any more (the event
   queue is empty, every manager flushed, and something is still
   outstanding). *)
let drain engine ~flushes ~drained =
  let rec loop guard =
    Sim.Engine.run engine;
    List.iter (fun flush -> flush ()) flushes;
    Sim.Engine.run engine;
    if drained () then true else if guard = 0 then false else loop (guard - 1)
  in
  loop 1000

(* ---- the snapshot-serving subsystem (lib/serve) wired to a run ----

   One version manager over the store, one optional shared result cache,
   and a population of reader sessions, each with its own serial service
   queue (a session is one client connection: its reads are handled one
   at a time, each costing a sampled read latency). The version is
   selected and *pinned* when service starts and released when the read
   completes, so the retention pruning that a concurrent commit triggers
   can never drop the snapshot an in-flight read is using. *)
type serving_ctx = {
  ctx_vm : Serve.Version_manager.t;
  ctx_cache : Serve.Result_cache.t option;
  ctx_records : read_record list ref;
  ctx_publish : Warehouse.Wt.t -> unit;  (* call after each store commit *)
  ctx_pending : unit -> int;
  ctx_freeze : bool -> unit;
      (* warehouse down: stop starting new reads (queued reads wait; reads
         already in service complete against their pinned versions) *)
  ctx_recover : Warehouse.Store.commit list -> unit;
      (* republish the restored commit history from version 0 *)
}

let setup_serving engine ~rng ~sample ~metrics ~store ~views ~log cfg =
  match cfg.reads with
  | None -> None
  | Some rp ->
    let population =
      List.concat_map (fun (g, n) -> List.init n (fun _ -> g)) rp.sessions
    in
    if population = [] then
      invalid_arg "System: cfg.reads needs at least one session";
    let arrival_rng = Sim.Rng.split rng in
    let pick_rng = Sim.Rng.split rng in
    let vm =
      Serve.Version_manager.create ~retention:rp.serve_retention
        (Warehouse.Store.snapshot store)
    in
    let cache =
      if rp.read_cache then Some (Serve.Result_cache.create ()) else None
    in
    let queries =
      Array.of_list
        (match rp.queries with
        | [] ->
          List.map (fun v -> Query.Algebra.base (Query.View.name v)) views
        | qs -> qs)
    in
    let records = ref [] in
    let frozen = ref false in
    let servers =
      Array.of_list
        (List.mapi
           (fun sid g ->
             let session = Serve.Session.create ?cache ~guarantee:g vm in
             let queue = Queue.create () in
             let busy = ref false in
             let rec pump () =
               if (not !frozen) && (not !busy) && not (Queue.is_empty queue)
               then begin
                 busy := true;
                 let arrived, as_of, query = Queue.pop queue in
                 let pending =
                   Serve.Session.start session ~now:(Sim.Engine.now engine)
                     ?as_of ()
                 in
                 let version = Serve.Session.pending_version pending in
                 (* A cache hit skips the evaluation kernel, so it gets the
                    cheap service-time distribution. The probe pins neither
                    statistics nor the entry: the authoritative lookup (and
                    hit/miss accounting) happens at completion, against the
                    version pinned here, so the probe's answer cannot rot.
                    Either branch draws exactly one latency sample, keeping
                    the RNG stream aligned across configurations. *)
                 let will_hit =
                   match cache with
                   | Some c ->
                     Serve.Result_cache.peek c
                       ~version:version.Serve.Version_manager.index query
                   | None -> false
                 in
                 let service_mean =
                   if will_hit then cfg.latencies.read_hit
                   else cfg.latencies.read
                 in
                 Sim.Engine.schedule_after engine (sample service_mean)
                   (fun () ->
                     let now = Sim.Engine.now engine in
                     let o = Serve.Session.complete session pending ~now query in
                     Atomic.incr metrics.Metrics.reads;
                     Sim.Stats.Summary.add metrics.Metrics.read_latency
                       (now -. arrived);
                     Sim.Stats.Summary.add metrics.Metrics.served_staleness
                       o.Serve.Session.staleness;
                     (match cache with
                     | Some _ ->
                       if o.Serve.Session.cache_hit then
                         Atomic.incr metrics.Metrics.cache_hits
                       else Atomic.incr metrics.Metrics.cache_misses
                     | None -> ());
                     if o.Serve.Session.clamped then
                       Atomic.incr metrics.Metrics.reads_clamped;
                     log
                       (Printf.sprintf
                          "session %d (%s) served from version %d%s%s" sid
                          (Serve.Session.guarantee_name g)
                          o.Serve.Session.version
                          (if o.Serve.Session.cache_hit then " [cache]"
                           else "")
                          (if o.Serve.Session.clamped then " [clamped]"
                           else ""));
                     records :=
                       { read_session = sid; read_guarantee = g;
                         read_query = query; read_as_of = as_of;
                         read_arrived = arrived; read_served = now;
                         read_version = o.Serve.Session.version;
                         read_version_time = o.Serve.Session.version_time;
                         read_staleness = o.Serve.Session.staleness;
                         read_cache_hit = o.Serve.Session.cache_hit;
                         read_clamped = o.Serve.Session.clamped;
                         read_state = version.Serve.Version_manager.state;
                         read_result = o.Serve.Session.result }
                       :: !records;
                     busy := false;
                     pump ())
               end
             in
             let submit job =
               Queue.push job queue;
               pump ()
             in
             let pending () = Queue.length queue + if !busy then 1 else 0 in
             (submit, pending, pump))
           population)
    in
    (* Read arrival process, independent of the update schedule. *)
    let clock = ref 0.0 in
    for _ = 1 to rp.n_reads do
      let at =
        match rp.read_arrival with
        | All_at_once -> 0.0
        | Uniform gap ->
          clock := !clock +. gap;
          !clock
        | Poisson rate ->
          clock := !clock +. Sim.Rng.exponential arrival_rng ~mean:(1.0 /. rate);
          !clock
      in
      Sim.Engine.schedule_at engine at (fun () ->
          let sid = Sim.Rng.int pick_rng (Array.length servers) in
          let query = queries.(Sim.Rng.int pick_rng (Array.length queries)) in
          let as_of =
            if
              rp.as_of_fraction > 0.0
              && Sim.Rng.float pick_rng 1.0 < rp.as_of_fraction
            then Some (Float.max 0.0 (at -. Sim.Rng.float pick_rng rp.as_of_lag))
            else None
          in
          let submit, _, _ = servers.(sid) in
          submit (at, as_of, query))
    done;
    (* Warehouse state at the previously published version: the [pre]
       side of the commit's per-view deltas when the cache refreshes
       entries in place instead of invalidating them. *)
    let last_state = ref (Warehouse.Store.snapshot store) in
    let publish wt =
      let now = Sim.Engine.now engine in
      let changed = Warehouse.Wt.views wt in
      let post = Warehouse.Store.snapshot store in
      let v = Serve.Version_manager.publish vm ~time:now ~changed post in
      (match cache with
      | Some c ->
        if rp.cache_refresh then
          Serve.Result_cache.commit c ~version:v.Serve.Version_manager.index
            ~changed ~pre:!last_state ~post
        else
          List.iter
            (fun view ->
              Serve.Result_cache.note_change c ~view
                ~version:v.Serve.Version_manager.index)
            changed
      | None -> ());
      last_state := post;
      Sim.Stats.Summary.add metrics.Metrics.versions_retained
        (float_of_int (Serve.Version_manager.retained vm));
      Sim.Stats.Summary.add metrics.Metrics.versions_pinned
        (float_of_int (Serve.Version_manager.pinned vm))
    in
    let pending () =
      Array.fold_left (fun acc (_, p, _) -> acc + p ()) 0 servers
    in
    let freeze f =
      frozen := f;
      if not f then Array.iter (fun (_, _, pump) -> pump ()) servers
    in
    (* Warehouse crash recovery: restart the version history at 0 and
       republish the restored commits at their recorded times — each
       version lands back at its original index, so leases held by
       in-flight reads and the floors of monotonic sessions stay valid.
       The result cache is wiped outright (entries and change history
       describe the version sequence being rebuilt). *)
    let recover commits =
      Serve.Version_manager.restart vm
        ~initial:(Warehouse.Store.initial store);
      (match cache with Some c -> Serve.Result_cache.clear c | None -> ());
      last_state := Warehouse.Store.initial store;
      List.iter
        (fun (c : Warehouse.Store.commit) ->
          let changed = Warehouse.Wt.views c.transaction in
          let v =
            Serve.Version_manager.publish vm ~time:c.Warehouse.Store.time
              ~changed c.Warehouse.Store.state
          in
          (match cache with
          | Some rc ->
            if rp.cache_refresh then
              Serve.Result_cache.commit rc
                ~version:v.Serve.Version_manager.index ~changed
                ~pre:!last_state ~post:c.Warehouse.Store.state
            else
              List.iter
                (fun view ->
                  Serve.Result_cache.note_change rc ~view
                    ~version:v.Serve.Version_manager.index)
                changed
          | None -> ());
          last_state := c.Warehouse.Store.state)
        commits
    in
    Some
      { ctx_vm = vm; ctx_cache = cache; ctx_records = records;
        ctx_publish = publish; ctx_pending = pending; ctx_freeze = freeze;
        ctx_recover = recover }

let serving_publish ctx wt =
  match ctx with Some c -> c.ctx_publish wt | None -> ()

let serving_pending ctx =
  match ctx with Some c -> c.ctx_pending () | None -> 0

let serving_freeze ctx f =
  match ctx with Some c -> c.ctx_freeze f | None -> ()

let serving_recover ctx commits =
  match ctx with Some c -> c.ctx_recover commits | None -> ()

let serving_result ctx =
  Option.map
    (fun c ->
      { version_manager = c.ctx_vm; result_cache = c.ctx_cache;
        reads_served = List.rev !(c.ctx_records) })
    ctx

let ctx_cache_of = function Some c -> c.ctx_cache | None -> None

(* Fold the run-scoped perf counters into the metrics at drain time: the
   query-kernel counters accrued since the run started, the shared
   slots' hit/miss/maintenance tallies, and the result cache's
   refresh-vs-invalidate decision counts and retained snapshots. *)
let finalize_perf_metrics metrics ~kernel0 ~slots ~serving =
  Metrics.add_kernel_counters_since metrics kernel0;
  (match slots with
  | Some slots ->
    let s = Selfmaint.Plan.slot_stats slots in
    Metrics.add metrics.Metrics.shared_hits s.Selfmaint.Plan.hits;
    Metrics.add metrics.Metrics.shared_misses s.Selfmaint.Plan.misses;
    Metrics.add metrics.Metrics.shared_rows s.Selfmaint.Plan.rows_maintained
  | None -> ());
  match ctx_cache_of serving with
  | Some c ->
    let s = Serve.Result_cache.stats c in
    Metrics.add metrics.Metrics.cache_refreshes s.Serve.Result_cache.refreshed;
    Metrics.add metrics.Metrics.cache_refresh_fallbacks
      s.Serve.Result_cache.refresh_fallbacks;
    Metrics.add metrics.Metrics.cache_deltas_carried
      s.Serve.Result_cache.deltas_carried;
    Metrics.add metrics.Metrics.cache_deltas_diffed
      s.Serve.Result_cache.deltas_diffed;
    Metrics.add metrics.Metrics.cache_snapshots s.Serve.Result_cache.snapshots
  | None -> ()

(* The Section 1.1 baseline: one process, sequential handling of updates,
   one warehouse transaction per update, waiting for each commit. *)
let effective_views cfg schemas =
  if cfg.optimize_views then
    List.map
      (fun v ->
        Query.View.make (Query.View.name v)
          (Query.Optimize.optimize ~schemas v.Query.View.def))
      cfg.scenario.Workload.Scenarios.views
  else cfg.scenario.views

(* One full-replica plan per view, rewritten to share their common
   subplans under [shared_plans]; the slot table comes along for its
   counters. *)
let view_plans cfg ~initial views =
  let plans = List.map (Selfmaint.Plan.replica ~initial) views in
  if cfg.shared_plans then
    let plans, slots = Selfmaint.Plan.share plans in
    (plans, Some slots)
  else (plans, None)

let run_sequential cfg =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let arrival_rng = Sim.Rng.split rng in
  let lat_rng = Sim.Rng.split rng in
  let sources = Workload.Scenarios.sources cfg.scenario in
  let views = effective_views cfg (Source.Sources.schema_lookup sources) in
  let initial_db = Source.Sources.initial sources in
  let store =
    Warehouse.Store.create ~retention:cfg.store_retention
      (List.map
         (fun v -> (Query.View.name v, Query.View.materialize initial_db v))
         views)
  in
  let metrics = Metrics.create () in
  let kernel0 = Metrics.kernel_counters () in
  let sample mean = Sim.Rng.exponential lat_rng ~mean in
  let exec = Parallel.Config.exec cfg.parallel in
  let plans, slots = view_plans cfg ~initial:initial_db views in
  (* Each view with its plan and the plan's [Group_by] state. *)
  let managed =
    List.map2
      (fun v plan -> (v, plan, ref Query.Compiled.no_groups))
      views plans
  in
  let serving =
    setup_serving engine ~rng ~sample ~metrics ~store ~views ~log:ignore cfg
  in
  let arrival_times = Hashtbl.create 64 in
  let queue = Queue.create () in
  let busy = ref false in
  let cache = ref initial_db in
  let rec pump () =
    if (not !busy) && not (Queue.is_empty queue) then begin
      busy := true;
      let txn = Queue.pop queue in
      let changes = Query.Delta.of_transaction txn in
      let relevant =
        List.filter
          (fun (v, _, _) ->
            List.exists
              (fun r -> Query.View.uses v r)
              (Update.Transaction.relations txn))
          managed
      in
      (* The per-view deltas of one source update are independent by
         construction (each reads only the shared pre-state), so they fan
         out across the pool; [Exec.map] preserves view order, making the
         action-list order — and thus the WT — identical to [List.map].
         Each view steps its own plan over the one cache; a shared slot
         advances once, on the first view's demand. *)
      let pre = !cache in
      let actions =
        Parallel.Exec.map exec
          (fun (v, plan, groups) ->
            let delta, g =
              Selfmaint.Plan.step ~exec ~txn:txn.Update.Transaction.id plan
                ~pre ~groups:!groups
                (Selfmaint.Plan.project plan changes)
            in
            groups := g;
            Query.Action_list.delta ~view:(Query.View.name v)
              ~state:txn.Update.Transaction.id delta)
          relevant
      in
      cache := Query.Delta.apply !cache changes;
      (* Deltas for all views are computed one after the other by the same
         process — the whole point of the strawman's slowness. Under
         [model_overlap] the charge is instead the LPT makespan of the
         same per-view samples over [domains] lanes (the Figure 3 cost
         model); the samples themselves are drawn identically in both
         modes, so the RNG stream never forks. *)
      let compute_samples =
        List.map (fun _ -> sample cfg.latencies.compute) relevant
      in
      let compute_time =
        if cfg.parallel.Parallel.Config.model_overlap then
          Parallel.makespan ~lanes:cfg.parallel.Parallel.Config.domains
            compute_samples
        else List.fold_left ( +. ) 0.0 compute_samples
      in
      Sim.Engine.schedule_after engine (compute_time +. sample cfg.latencies.commit)
        (fun () ->
          if actions <> [] then begin
            let wt = Warehouse.Wt.make ~rows:[ txn.id ] actions in
            Warehouse.Store.apply store ~time:(Sim.Engine.now engine) wt;
            Atomic.incr metrics.Metrics.commits;
            Metrics.add metrics.Metrics.actions_applied
              (Warehouse.Wt.action_count wt);
            serving_publish serving wt;
            (match Hashtbl.find_opt arrival_times txn.id with
            | Some t0 ->
              Sim.Stats.Summary.add metrics.Metrics.staleness
                (Sim.Engine.now engine -. t0)
            | None -> ())
          end;
          busy := false;
          pump ())
    end
  in
  let integrator_chan =
    Sim.Channel.create engine ~name:"sources->seq"
      ~latency:(fun () -> sample cfg.latencies.message)
      (fun txn ->
        Queue.push txn queue;
        pump ())
  in
  schedule_script engine arrival_rng cfg ~execute:(fun updates ->
      let txn = Source.Sources.execute sources updates in
      Atomic.incr metrics.Metrics.transactions;
      Hashtbl.replace arrival_times txn.Update.Transaction.id
        (Sim.Engine.now engine);
      Sim.Channel.send integrator_chan txn);
  let ok =
    drain engine ~flushes:[]
      ~drained:(fun () ->
        (not !busy) && Queue.is_empty queue && serving_pending serving = 0)
  in
  if not ok then
    raise (Stuck "sequential baseline failed to drain");
  metrics.Metrics.completed_at <- Sim.Engine.now engine;
  finalize_perf_metrics metrics ~kernel0 ~slots ~serving;
  { config = cfg; store; sources;
    transactions = Source.Sources.transactions sources; metrics;
    merge_algorithm = "sequential"; timeline = []; stuck = false;
    serving = serving_result serving; durability = None; fused = None }

(* A single-threaded service queue: the merge process handles one message
   at a time, each costing a sampled latency. This is what lets benchmark
   P2 observe the merge becoming a bottleneck (Section 7's question).

   A job is two halves. [work] is the group-local computation — reorderer
   ingest, painting, VUT bookkeeping — touching only state owned by this
   server's merge group; with a pooled exec it is dispatched to the
   domain pool when the message is popped and joined at the
   service-completion event, so different groups' merges genuinely
   overlap (Figure 3, one process per group). The busy flag guarantees
   at most one in-flight job per server, making each group's state
   single-writer. [finish] is the externally visible half — timeline
   records, WT submission, control replies, metric samples — and always
   runs on the simulation domain at the completion event, in the same
   order as the fully sequential server, which is why [domains = 1] and
   [domains = n] produce identical traces. *)
let make_server ?(batch = false) engine ~exec ~latency =
  let queue = Queue.create () in
  let busy = ref false in
  let gen = ref 0 in
  let rec pump () =
    if (not !busy) && not (Queue.is_empty queue) then begin
      busy := true;
      (* [batch] is the fused fast path's service model: one service
         event covers everything queued at pump time — the whole backlog
         is charged a single latency sample, which is what moves the
         merge's saturation point. The default pops one message, the
         paper's single-threaded merge server. Either way the work
         halves run in queue order on one pool domain (the group's state
         stays single-writer) and the finish halves run in the same
         order on the simulation domain. *)
      let jobs =
        if batch then begin
          let js = ref [] in
          while not (Queue.is_empty queue) do
            js := Queue.pop queue :: !js
          done;
          List.rev !js
        end
        else [ Queue.pop queue ]
      in
      let fut =
        Parallel.Exec.spawn exec (fun () ->
            List.iter (fun (work, _) -> work ()) jobs)
      in
      let g = !gen in
      Sim.Engine.schedule_after engine (latency ()) (fun () ->
          (* Always join the future (the pool domain must not be leaked),
             but a completion fenced by [reset] publishes nothing: its
             finish half — and the pump — belong to a dead incarnation. *)
          Parallel.Exec.await fut;
          if g = !gen then begin
            List.iter (fun (_, finish) -> finish ()) jobs;
            busy := false;
            pump ()
          end)
    end
  in
  let submit job =
    Queue.push job queue;
    pump ()
  in
  let pending () = Queue.length queue + if !busy then 1 else 0 in
  (* Process crash: drop queued jobs and fence the in-flight one. *)
  let reset () =
    incr gen;
    Queue.clear queue;
    busy := false
  in
  (submit, pending, reset)

(* Channels between processes, optionally wrapped in the ARQ layer. Both
   flavours expose the same [send]; reliable links additionally track
   quiescence (unacked / buffered frames) for the drain check. *)
type 'a link = { send : 'a -> unit; reliable : 'a Sim.Reliable.t option }

(* Control traffic merge -> manager. [Resync_reply] answers a restarting
   manager's handshake with the merge's watermark for its view;
   [Resync_demand] is the inverse direction of initiative — a restarted
   merge asking every live manager to re-handshake and replay the action
   lists the fresh incarnation has not seen. *)
type ctrl_msg = Resync_reply of int * int | Resync_demand

let run_pipelined cfg =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let arrival_rng = Sim.Rng.split rng in
  let lat_rng = Sim.Rng.split rng in
  let sample mean = Sim.Rng.exponential lat_rng ~mean in
  let exec = Parallel.Config.exec cfg.parallel in
  let metrics = Metrics.create () in
  let timeline = ref [] in
  (* With the timeline off, a record consumes its arguments without
     formatting them: no message is built for nobody. *)
  let record fmt =
    if cfg.record_timeline then
      Fmt.kstr
        (fun msg -> timeline := (Sim.Engine.now engine, msg) :: !timeline)
        fmt
    else Format.ikfprintf ignore Format.err_formatter fmt
  in
  let names = Fmt.(list ~sep:(any ", ") string) in
  let row_ids = Fmt.(list ~sep:(any ", ") int) in
  (* Fault plan: the config's channel-level plan plus the deterministic
     translation of Drop_action_list faults (the nth physical message on
     the manager's action-list channel). Injection happens in the channel,
     so sent/delivered/dropped statistics stay truthful. *)
  let fault_rng = Sim.Rng.split rng in
  let link_rng = Sim.Rng.split rng in
  let plan =
    Workload.Fault_plan.union
      (cfg.fault_plan
      :: List.filter_map
           (function
             | Drop_action_list { view; nth } ->
               Some
                 (Workload.Fault_plan.nth ~channel:(view ^ "->merge") ~nth
                    Workload.Fault_plan.Drop)
             | Crash_vm _ | Crash_merge _ | Crash_integrator _
             | Crash_warehouse _ ->
               None)
           cfg.faults)
  in
  let quiescence : (unit -> bool) list ref = ref [] in
  let link_stats : (unit -> Sim.Reliable.stats) list ref = ref [] in
  let drop_counts : (unit -> int) list ref = ref [] in
  let register ~faultable chan =
    if faultable && not (Workload.Fault_plan.is_empty plan) then
      Workload.Fault_plan.attach plan ~rng:fault_rng chan;
    drop_counts := (fun () -> Sim.Channel.dropped chan) :: !drop_counts
  in
  (* [faultable:false] keeps a link outside the fault plan's reach. The
     source->integrator feed is the ground-truth boundary: the paper
     assumes sources report every committed transaction, and the
     consistency oracle's recorded schedule depends on it, so injected
     faults model only the warehouse's internal messaging. *)
  let make_link ?(faultable = true) ~name deliver =
    match cfg.reliability with
    | Off ->
      let ch =
        Sim.Channel.create engine ~name
          ~latency:(fun () -> sample cfg.latencies.message)
          deliver
      in
      register ~faultable ch;
      { send = (fun m -> Sim.Channel.send ch m); reliable = None }
    | Acked params ->
      let rl =
        Sim.Reliable.create engine ~name ~params ~rng:(Sim.Rng.split link_rng)
          ~on_give_up:(fun () ->
            (* Link death surfaced at the instant it happens, not just as
               an end-of-run statistic. *)
            Atomic.incr metrics.Metrics.gave_up;
            record "link %s gave up on a frame after max retries" name)
          ~latency:(fun () -> sample cfg.latencies.message)
          deliver
      in
      register ~faultable (Sim.Reliable.data_channel rl);
      register ~faultable (Sim.Reliable.ctrl_channel rl);
      quiescence := (fun () -> Sim.Reliable.quiescent rl) :: !quiescence;
      link_stats := (fun () -> Sim.Reliable.stats rl) :: !link_stats;
      { send = (fun m -> Sim.Reliable.send rl m); reliable = Some rl }
  in
  let sources = Workload.Scenarios.sources cfg.scenario in
  let schemas = Source.Sources.schema_lookup sources in
  let views = effective_views cfg schemas in
  let initial_db = Source.Sources.initial sources in
  let store =
    Warehouse.Store.create ~retention:cfg.store_retention
      (List.map
         (fun v -> (Query.View.name v, Query.View.materialize initial_db v))
         views)
  in
  let kernel0 = Metrics.kernel_counters () in
  (* Under [shared_plans] every view is a complete manager ([run]
     checks it), and their plans are built here, together, so they
     share one slot table. *)
  let shared_plans, slots =
    if cfg.shared_plans then
      let plans, slots = view_plans cfg ~initial:initial_db views in
      (List.combine (List.map Query.View.name views) plans, slots)
    else ([], None)
  in
  let arrival_times = Hashtbl.create 64 in
  let serving =
    setup_serving engine ~rng ~sample ~metrics ~store ~views
      ~log:(fun msg -> record "%s" msg)
      cfg
  in
  (* ---- the durable layer and process-crash bookkeeping ----

     Two write-ahead logs back the two stateful singleton processes: the
     warehouse WAL records every WT just before the store applies it
     (sync-per-append — the write-ahead is load-bearing), the integrator
     WAL records every stamped transaction with its REL set under group
     commit. Both are checkpointed periodically to bound replay. The WAL
     handles exist unconditionally so the report can read their stats;
     appends are gated on [durable_on]. *)
  let process_crashes = process_crash_faults cfg in
  let durable_on = process_crashes || cfg.durable <> None in
  (* Fused-run records for {!Consistency.Checker.certify_fused}: the
     emission sequence (rows per emitted WT) and each fused batch's
     constituent parts, both accumulated newest-first. *)
  let fused_emitted : int list list ref = ref [] in
  let fused_parts : (int list * Query.Action_list.t list) list list ref =
    ref []
  in
  let dur = Option.value ~default:default_durability cfg.durable in
  let wh_wal : (unit, float * Warehouse.Wt.t) Durable.Wal.t =
    Durable.Wal.create ~group_commit:1 ()
  in
  let integ_wal : (unit, Update.Transaction.t * string list) Durable.Wal.t =
    Durable.Wal.create ~group_commit:dur.group_commit ()
  in
  (* Checkpoints are sealed: both logs record exactly their recovery
     state (commits; stamped ingests), so a checkpoint just adopts the
     synced WAL image as the next segment ({!Durable.Wal.seal}) — zero
     re-marshaling, cost independent of history and of delta size. *)
  let wal_replayed = ref 0 in
  (* Auxiliary-state WALs of the self-maintaining managers (one per
     Selfmaint_vm when durable): records are applied transaction ids,
     the checkpoint slot snapshots the projected auxiliary database.
     Recovery restarts log replay from the checkpointed id instead of
     source state 0 — and never queries the sources. Collected here so
     the durability report can fold their disk stats in. *)
  let aux_wals :
      (string * (Database.t * int, int) Durable.Wal.t) list ref =
    ref []
  in
  let commits_restored = ref 0 in
  let dup_wts = ref 0 in
  let recovery_total = ref 0.0 in
  (* Rows whose WTs have been handed to the submitter, and per view the
     highest action-list state among them. This is the ground recovery
     dedups against: a restarted merge re-derives exactly the rows not
     here, and replayed action lists at or below a view's mark are
     duplicates. Rebuilt from the restored commit history after a
     warehouse crash (anything submitted but uncommitted died with the
     submitter queue and must be re-derived). *)
  let submitted_rows : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let submitted_marks : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let note_submitted (wt : Warehouse.Wt.t) =
    List.iter (fun row -> Hashtbl.replace submitted_rows row ()) wt.rows;
    List.iter
      (fun al ->
        let cur =
          Option.value ~default:0
            (Hashtbl.find_opt submitted_marks al.Query.Action_list.view)
        in
        if al.Query.Action_list.state > cur then
          Hashtbl.replace submitted_marks al.Query.Action_list.view
            al.Query.Action_list.state)
      wt.actions
  in
  (* Crash specs fire once, on the nth event the process handles; the
     crash bodies are tied through refs once the processes they wipe
     exist. The message carrying the triggering event is the casualty. *)
  let find_crash f = List.find_map f cfg.faults in
  let merge_crash_spec =
    find_crash (function
      | Crash_merge { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None)
  in
  let integ_crash_spec =
    find_crash (function
      | Crash_integrator { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None)
  in
  let wh_crash_spec =
    find_crash (function
      | Crash_warehouse { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None)
  in
  let merge_down = ref false in
  let integ_down = ref false in
  let wh_down = ref false in
  let merge_crash_armed = ref (merge_crash_spec <> None) in
  let integ_crash_armed = ref (integ_crash_spec <> None) in
  let wh_crash_armed = ref (wh_crash_spec <> None) in
  let merge_events = ref 0 in
  let integ_events = ref 0 in
  let wh_events = ref 0 in
  let crash_merge_ref = ref (fun () -> ()) in
  let crash_integ_ref = ref (fun () -> ()) in
  let crash_wh_ref = ref (fun () -> ()) in
  let note_merge_event () =
    incr merge_events;
    match merge_crash_spec with
    | Some (n, _) when !merge_crash_armed && !merge_events = n ->
      merge_crash_armed := false;
      !crash_merge_ref ()
    | _ -> ()
  in
  let note_integ_event () =
    incr integ_events;
    match integ_crash_spec with
    | Some (n, _) when !integ_crash_armed && !integ_events = n ->
      integ_crash_armed := false;
      !crash_integ_ref ()
    | _ -> ()
  in
  let note_wh_event () =
    incr wh_events;
    match wh_crash_spec with
    | Some (n, _) when !wh_crash_armed && !wh_events = n ->
      wh_crash_armed := false;
      !crash_wh_ref ()
    | _ -> ()
  in
  (* Per-link hooks collected as the links are built, so the crash bodies
     can reach every receiver/sender half they must reset. *)
  let merge_rx_down : (bool -> unit) list ref = ref [] in
  let merge_rx_reset : (unit -> unit) list ref = ref [] in
  let ctrl_bumps : (unit -> unit) list ref = ref [] in
  let vm_ctrls : (ctrl_msg -> unit) list ref = ref [] in
  let integ_sender_bumps : (unit -> unit) list ref = ref [] in
  let submitter =
    Warehouse.Submitter.create engine ~policy:cfg.submit
      ~commit_latency:(fun () -> sample cfg.latencies.commit)
      ~store
      ~run_tasks:(fun tasks ->
        (* Fan a run plan's independent per-view walks across the domain
           pool; planning happens on the simulation domain at the run's
           first commit event, so joining here blocks nothing else. *)
        match tasks with
        | [] -> ()
        | [ task ] -> task ()
        | _ ->
          let futs =
            List.map (fun task -> Parallel.Exec.spawn exec task) tasks
          in
          List.iter Parallel.Exec.await futs)
      ~on_plan:(fun (p : Warehouse.Store.run_plan) ->
        Atomic.incr metrics.Metrics.merge_runs;
        Metrics.add metrics.Metrics.coalesced_in p.Warehouse.Store.coalesced_in;
        Metrics.add metrics.Metrics.coalesced_out
          p.Warehouse.Store.coalesced_out;
        Metrics.add metrics.Metrics.coalesce_fallbacks
          p.Warehouse.Store.seq_fallbacks)
      ~pre_commit:(fun ~time wt ->
        (* Write-ahead: the WT is durable before the store applies it, so
           every applied commit is reproducible from checkpoint + WAL. A
           fused run was already logged as one group frame at release
           ({!Durable.Wal.append_group}), part by part. *)
        if durable_on && cfg.merge_batch <> Fused then
          Durable.Wal.append wh_wal (time, wt))
      ~on_commit:(fun wt ->
        record "warehouse commit: rows [%a] -> views {%a}" row_ids
          wt.Warehouse.Wt.rows
          (fun ppf wt -> names ppf (Warehouse.Wt.views wt))
          wt;
        Atomic.incr metrics.Metrics.commits;
        Metrics.add metrics.Metrics.actions_applied
          (Warehouse.Wt.action_count wt);
        serving_publish serving wt;
        if
          durable_on
          && Warehouse.Store.commit_count store mod dur.checkpoint_every = 0
        then Durable.Wal.seal wh_wal;
        List.iter
          (fun row ->
            match Hashtbl.find_opt arrival_times row with
            | Some t0 ->
              Sim.Stats.Summary.add metrics.Metrics.staleness
                (Sim.Engine.now engine -. t0)
            | None -> ())
          wt.Warehouse.Wt.rows;
        (* Index churn next to the batch counters: occupancy of every
           memoized hash index of the views this commit touched. The
           sample is free when the kernels built no index. *)
        List.iter
          (fun v ->
            List.iter
              (fun (o : Bag_index.occupancy) ->
                Sim.Stats.Summary.add metrics.Metrics.index_slots
                  (float_of_int o.Bag_index.slots);
                Sim.Stats.Summary.add metrics.Metrics.index_live
                  (float_of_int o.Bag_index.live))
              (Relation.index_stats (Warehouse.Store.view store v)))
          (Warehouse.Wt.views wt))
      ()
  in
  (* Merge processes: one per group (Section 6.1), or a single one. Groups
     are balanced by estimated evaluation cost — the summed initial
     cardinality of each view's base relations — so that with parallel
     merge groups every domain gets comparable work, not just a
     comparable view count. *)
  let groups =
    match cfg.merge_groups with
    | None -> [ views ]
    | Some k ->
      let weight v =
        List.fold_left
          (fun acc r ->
            acc
            +
            match Database.find initial_db r with
            | rel -> Relation.cardinal rel
            | exception _ -> 0)
          1
          (Query.View.base_relations v)
      in
      Mvc.Partition.coarsen ~weight ~max_groups:k
        (Mvc.Partition.groups views)
  in
  let algorithm = algorithm_for cfg in
  let n_groups = List.length groups in
  (* A merge's [emit] fires inside its group's work half, which may be
     running on a pool domain; WTs are buffered group-locally and
     submitted from the simulation domain — in emission order — by the
     job's finish half (or by the flush wrapper during drain). *)
  let emitted = Array.init n_groups (fun _ -> Queue.create ()) in
  (* Merge state lives in a mutable array so a crash can replace a group's
     merge with a fresh incarnation; everything downstream dereferences
     through [merge_of] at use time. *)
  let groups_arr = Array.of_list groups in
  let make_merge gi group =
    Mvc.Merge.create algorithm
      ~views:(List.map Query.View.name group)
      ~emit:(fun wt -> Queue.push wt emitted.(gi))
  in
  let merge_arr = Array.init n_groups (fun gi -> make_merge gi groups_arr.(gi)) in
  let merge_of gi = merge_arr.(gi) in
  (* Per-group row dedup for REL deliveries (process-crash runs only):
     after a merge restart, the state transfer and the integrator's live
     ARQ retransmits overlap, and SPA must see each group REL exactly
     once. Seeded with the submitted rows on restart. *)
  let rel_seen : (int, unit) Hashtbl.t array =
    Array.init n_groups (fun _ -> Hashtbl.create 64)
  in
  (* Pop everything the last merge step emitted — the ready run, in
     emission order — through the warehouse's receive guards, one WT at
     a time: the crash counter, a down or just-crashed warehouse, and
     the duplicate-row drop and submitted-row seeding that crash
     recovery's accounting depends on. A crash loses the whole run: the
     WTs before it with the submitter queue, the WTs after it with the
     merge (which clears [emitted]). *)
  let pop_ready gi =
    let size = Queue.length emitted.(gi) in
    let pos = ref 0 and run = ref [] in
    while not (Queue.is_empty emitted.(gi)) do
      incr pos;
      let wt = Queue.pop emitted.(gi) in
      if !wh_down then
        record "warehouse down: WT for rows [%a] lost" row_ids
          wt.Warehouse.Wt.rows
      else begin
        note_wh_event ();
        if !wh_down then
          record
            "warehouse crashed receiving WT %d of a %d-WT run (rows [%a])"
            !pos size row_ids wt.Warehouse.Wt.rows
        else if
          process_crashes
          && wt.Warehouse.Wt.rows <> []
          && List.for_all
               (fun r -> Hashtbl.mem submitted_rows r)
               wt.Warehouse.Wt.rows
        then begin
          (* Recovery re-derived a WT the pre-crash incarnation already
             submitted; committing it twice would double-apply. *)
          incr dup_wts;
          record "duplicate WT for rows [%a] dropped at submit" row_ids
            wt.Warehouse.Wt.rows
        end
        else begin
          if process_crashes then note_submitted wt;
          run := wt :: !run
        end
      end
    done;
    if !wh_down then [] else List.rev !run
  in
  let drain_emitted gi =
    match pop_ready gi with
    | [] -> ()
    | wts -> (
      Sim.Stats.Summary.add metrics.Metrics.merge_batch_size
        (float_of_int (List.length wts));
      match cfg.merge_batch with
      | Coalesced ->
        (* The whole run reaches the submitter as a unit: each WT keeps
           its own commit event and latency draw, but the store plans
           the run's view timelines in one coalesced pass at the first
           commit. *)
        Warehouse.Submitter.submit_run submitter wts
      | Fused ->
        (* The run is released as one batched warehouse transaction: the
           store lands on the run's endpoint and skips its intermediate
           states (batching consistency). The parts and the emission
           sequence are recorded for {!Consistency.Checker.certify_fused},
           and the durable layer gets the run as one WAL group frame. *)
        List.iter
          (fun (wt : Warehouse.Wt.t) ->
            fused_emitted := wt.Warehouse.Wt.rows :: !fused_emitted)
          wts;
        fused_parts :=
          List.map
            (fun (wt : Warehouse.Wt.t) ->
              (wt.Warehouse.Wt.rows, wt.Warehouse.Wt.actions))
            wts
          :: !fused_parts;
        if durable_on then
          Durable.Wal.append_group wh_wal
            (List.map (fun wt -> (Sim.Engine.now engine, wt)) wts);
        let bwt = Warehouse.Wt.batch wts in
        if List.length wts > 1 then
          record "merge: fused %d WTs into one BWT (rows [%a])"
            (List.length wts) row_ids bwt.Warehouse.Wt.rows;
        (* As a single-entry run so the submitter plans it: the BWT's
           action lists are coalesced per view — a batch cancels its own
           churn — and the per-view walks fan across the pool. *)
        Warehouse.Submitter.submit_run submitter [ bwt ])
  in
  (* One service queue per merge process: messages from the REL channel and
     every view manager's AL channel are handled one at a time. *)
  let merge_servers =
    Array.init n_groups (fun _ ->
        make_server ~batch:(cfg.merge_batch = Fused) engine ~exec
          ~latency:(fun () ->
            (* Wrapping the sample changes no RNG draw — the service-time
               summary rides along for free. *)
            let l = sample cfg.latencies.merge in
            Sim.Stats.Summary.add metrics.Metrics.merge_service_time l;
            l))
  in
  let merge_server_of gi =
    let submit, _, _ = merge_servers.(gi) in
    submit
  in
  let merge_servers_pending () =
    Array.fold_left (fun acc (_, pending, _) -> acc + pending ()) 0
      merge_servers
  in
  let merge_servers_reset () =
    Array.iter (fun (_, _, reset) -> reset ()) merge_servers
  in
  (* Merge occupancy is sampled from per-group snapshots refreshed on the
     simulation domain whenever that group's state settles (job finish,
     flush). Reading another group's merge live would race with its
     in-flight work; the snapshots are exactly the live values at every
     sampling point because merge state only changes inside jobs and
     flushes. *)
  let held_snapshot = Array.make n_groups 0 in
  let rows_snapshot = Array.make n_groups 0 in
  let snapshot_group gi merge =
    held_snapshot.(gi) <- Mvc.Merge.held_action_lists merge;
    rows_snapshot.(gi) <- Mvc.Merge.live_rows merge
  in
  let sample_merge_metrics () =
    Sim.Stats.Summary.add metrics.Metrics.merge_held
      (float_of_int (Array.fold_left ( + ) 0 held_snapshot));
    Sim.Stats.Summary.add metrics.Metrics.merge_live_rows
      (float_of_int (Array.fold_left ( + ) 0 rows_snapshot));
    Sim.Stats.Summary.add metrics.Metrics.merge_queue_depth
      (float_of_int (merge_servers_pending ()))
  in
  (* View managers and their AL channels to the owning merge. *)
  let merge_of_view =
    let table = Hashtbl.create 16 in
    List.iteri
      (fun gi group ->
        List.iter
          (fun v -> Hashtbl.replace table (Query.View.name v) gi)
          group)
      groups;
    fun name -> Hashtbl.find table name
  in
  let remote_query expr k =
    (* Request travel, evaluation at the source's then-current state,
       answer travel. Each call is a compensation round trip the
       self-maintaining managers exist to avoid, so it is counted. *)
    Atomic.incr metrics.Metrics.source_queries;
    let issued = Sim.Engine.now engine in
    Sim.Engine.schedule_after engine (sample (cfg.latencies.query_roundtrip /. 2.))
      (fun () ->
        let contents = Relation.contents (Source.Sources.query sources expr) in
        let version = Source.Sources.last_id sources in
        Sim.Engine.schedule_after engine
          (sample (cfg.latencies.query_roundtrip /. 2.))
          (fun () ->
            Sim.Stats.Summary.add metrics.Metrics.source_query_latency
              (Sim.Engine.now engine -. issued);
            k (contents, version)))
  in
  (* Pending REL forwards per view manager (Section 3.2's alternative
     scheme: the integrator hands REL_i to a relevant manager, which
     forwards it to the merge when it delivers its action lists).

     Unlike the direct scheme, forwarded RELs can reach the merge out of
     row order (they travel on different managers' channels), while the
     painting algorithms assume that when an action list covering row j is
     processed, every group REL for rows <= j has been seen. Each forward
     therefore carries the previous row routed to the same merge, and a
     per-merge reorderer ingests RELs strictly in that chain order. *)
  let rel_forwards : (string, (int * string list * int) Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let rel_reorderers =
    List.mapi
      (fun gi _ ->
        let held = Hashtbl.create 16 in
        let last = ref 0 in
        let rec ingest (row, rel, prev) =
          if prev = !last then begin
            Mvc.Merge.receive_rel (merge_of gi) ~row ~rel;
            last := row;
            match Hashtbl.find_opt held row with
            | Some next ->
              Hashtbl.remove held row;
              ingest next
            | None -> ()
          end
          else Hashtbl.replace held prev (row, rel, prev)
        in
        (ingest, fun () -> Hashtbl.length held))
      groups
  in
  let reorderer_of gi = List.nth rel_reorderers gi in
  let forwards_of name =
    match Hashtbl.find_opt rel_forwards name with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add rel_forwards name q;
      q
  in
  (* The integrator is created early so recovering view managers can close
     over it: crash recovery replays its retained update log. *)
  let retain_log =
    durable_on
    || List.exists (function Crash_vm _ -> true | _ -> false) cfg.faults
  in
  let integ =
    Integrator.create ~semantic_filter:cfg.semantic_filter ~retain_log
      ~schemas views
  in
  (* Highest action-list state the merge layer has received per view: the
     watermark a restarting manager resyncs against (it replays only the
     log suffix the merge has not yet seen). *)
  let watermarks : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* Views whose managers a restarted merge has not yet re-handshaked
     with. Until a view's [`Resync] marker (the first frame of the
     manager's fresh epoch) arrives, any action list delivered for it is
     a remnant of the dead merge's stream — a pre-crash in-flight frame
     the reset receiver adopted — and delivering it would violate SPA's
     per-manager FIFO invariant (a later row's list overtaking an earlier
     row still waiting). Dropping is safe: the resync replay re-derives
     every state above the submitted watermark. *)
  let awaiting_resync : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let make_vm view =
    let name = Query.View.name view in
    let kind = kind_of cfg view in
    let gi = merge_of_view name in
    let crash_spec =
      List.find_map
        (function
          | Crash_vm { view = v; at_event; restart_after }
            when String.equal v name ->
            Some (at_event, restart_after)
          | _ -> None)
        cfg.faults
    in
    (match (crash_spec, kind) with
    | Some _, (Complete_vm | Selfmaint_vm | Batching_vm) | None, _ -> ()
    | Some _, _ ->
      invalid_arg
        "System: Crash_vm faults support Complete_vm, Selfmaint_vm and \
         Batching_vm managers (log-replay recovery)");
    (* Control channel merge -> manager, carrying resync replies
       (epoch, watermark) and restarted-merge resync demands. Handler
       installed below. *)
    let ctrl_handler = ref (fun (_ : ctrl_msg) -> ()) in
    let ctrl_link =
      make_link ~name:("merge->" ^ name) (fun msg -> !ctrl_handler msg)
    in
    let al_link =
      make_link ~name:(name ^ "->merge") (fun msg ->
          if !merge_down then ()
          else begin
            note_merge_event ();
            if !merge_down then ()
              (* crashed on this very event; the message is the casualty *)
            else begin
              (match msg with
              | `Resync _ -> Hashtbl.remove awaiting_resync name
              | _ -> ());
              if
                (match msg with `Al _ -> true | _ -> false)
                && Hashtbl.mem awaiting_resync name
              then record "merge dropped pre-resync AL(%s)" name
              else
              (* Delivery-time dedup around merge restarts: a replayed
                 action list at or below the view's delivered watermark
                 would trip SPA's strictly-increasing state check. Only
                 live under process-crash faults — crash-free runs keep
                 the raw channel behaviour. *)
              let duplicate =
                match msg with
                | `Al al when process_crashes ->
                  let cur =
                    Option.value ~default:0
                      (Hashtbl.find_opt watermarks al.Query.Action_list.view)
                  in
                  if al.Query.Action_list.state <= cur then true
                  else begin
                    Hashtbl.replace watermarks al.Query.Action_list.view
                      al.Query.Action_list.state;
                    false
                  end
                | _ -> false
              in
              if duplicate then
                record "merge dropped duplicate AL(%s)" name
              else begin
                (* Work half: group-local painting/reordering, safe off
                   the simulation domain. Finish half: timeline records,
                   the watermark table (shared across groups), control
                   replies and buffered WT submission — simulation domain
                   only. *)
                let work, finish =
                  match msg with
                  | `Rel ((row, _, _) as fwd) ->
                    ( (fun () -> fst (reorderer_of gi) fwd),
                      fun () ->
                        record "merge <- forwarded REL_%d (via %s)" row name
                    )
                  | `Al al ->
                    ( (fun () ->
                        Mvc.Merge.receive_action_list (merge_of gi) al),
                      fun () ->
                        record "merge <- AL(%s, %d)" al.Query.Action_list.view
                          al.Query.Action_list.state;
                        let cur =
                          Option.value ~default:0
                            (Hashtbl.find_opt watermarks
                               al.Query.Action_list.view)
                        in
                        if al.Query.Action_list.state > cur then
                          Hashtbl.replace watermarks
                            al.Query.Action_list.view
                            al.Query.Action_list.state )
                  | `Resync epoch ->
                    ( (fun () -> ()),
                      fun () ->
                        record "merge <- resync(%s, epoch %d)" name epoch;
                        let w =
                          Option.value ~default:0
                            (Hashtbl.find_opt watermarks name)
                        in
                        ctrl_link.send (Resync_reply (epoch, w)) )
                in
                merge_server_of gi
                  ( work,
                    fun () ->
                      finish ();
                      snapshot_group gi (merge_of gi);
                      drain_emitted gi;
                      sample_merge_metrics () )
              end
            end
          end)
    in
    (* Register the crash hooks this manager's links contribute: the
       merge owns the receiving half of [al_link] and the sending half of
       [ctrl_link]; the integrator owns the sending half of
       [integ_link] (registered below, once it exists). *)
    merge_rx_down :=
      (fun d ->
        match al_link.reliable with
        | Some rl -> Sim.Reliable.set_receiver_down rl d
        | None -> ())
      :: !merge_rx_down;
    merge_rx_reset :=
      (fun () ->
        match al_link.reliable with
        | Some rl -> Sim.Reliable.reset_receiver rl
        | None -> ())
      :: !merge_rx_reset;
    ctrl_bumps :=
      (fun () ->
        match ctrl_link.reliable with
        | Some rl -> ignore (Sim.Reliable.bump_epoch rl)
        | None -> ())
      :: !ctrl_bumps;
    vm_ctrls := (fun msg -> ctrl_link.send msg) :: !vm_ctrls;
    let emit_to_merge al =
      (* Forward any RELs this manager owes the merge for rows the list
         covers, ahead of the list itself (same FIFO channel). *)
      let owed = forwards_of name in
      let rec drain () =
        match Queue.peek_opt owed with
        | Some ((row, _, _) as fwd) when row <= al.Query.Action_list.state ->
          ignore (Queue.pop owed);
          al_link.send (`Rel fwd);
          drain ()
        | Some _ | None -> ()
      in
      drain ();
      al_link.send (`Al al)
    in
    (* Crash wrapper state. [incarnation] fences events scheduled by a dead
       incarnation of the manager (the engine cannot cancel events). *)
    let incarnation = ref 0 in
    let down = ref false in
    let recovering = ref false in
    let last_id = ref 0 in
    let pending_recovery : Update.Transaction.t Queue.t = Queue.create () in
    let emit_count = ref 0 in
    let crash_armed = ref (crash_spec <> None) in
    let resync_epoch = ref 0 in
    (* [resume] carries the plan, cache and group state the resync replay
       rebuilt into the next [build_inner]; the aux WAL checkpoints a
       self-maintaining manager's auxiliary state so that replay starts
       from the checkpoint, not from ss_0. *)
    let resume :
        (Selfmaint.Plan.t * (Database.t * Query.Compiled.groups)) option ref
        =
      ref None
    in
    let aux_wal =
      if durable_on && kind = Selfmaint_vm then begin
        let wal : (Database.t * int, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:dur.group_commit ()
        in
        aux_wals := (name, wal) :: !aux_wals;
        Some wal
      end
      else None
    in
    let aux_applies = ref 0 in
    let aux_on_apply (txn : Update.Transaction.t) cache =
      match aux_wal with
      | None -> ()
      | Some wal ->
        Durable.Wal.append wal txn.Update.Transaction.id;
        incr aux_applies;
        if !aux_applies mod dur.checkpoint_every = 0 then
          (* Contents only: memos hold process-local interned ids. *)
          Durable.Wal.checkpoint wal
            ( Database.map Relation.contents_only cache,
              txn.Update.Transaction.id )
    in
    let receive_ref = ref (fun (_ : Update.Transaction.t) -> ()) in
    let integ_link =
      make_link ~name:("integ->" ^ name) (fun txn -> !receive_ref txn)
    in
    integ_sender_bumps :=
      (fun () ->
        match integ_link.reliable with
        | Some rl -> ignore (Sim.Reliable.bump_epoch rl)
        | None -> ())
      :: !integ_sender_bumps;
    let crash () =
      crash_armed := false;
      down := true;
      incr incarnation;
      Atomic.incr metrics.Metrics.crashes;
      record "%s crashed (losing its in-memory state)" name;
      (* The auxiliary WAL is a disk: it survives, minus the unsynced
         tail. *)
      (match aux_wal with
      | Some wal -> Durable.Wal.crash wal
      | None -> ());
      (match integ_link.reliable with
      | Some rl -> Sim.Reliable.set_receiver_down rl true
      | None -> ());
      match (cfg.reliability, crash_spec) with
      | Off, _ | _, None ->
        (* Without the reliability layer there is no resync protocol: the
           manager stays dead. Progress may stop, but nothing wrong is
           ever merged (stuck-but-safe). *)
        ()
      | Acked _, Some (_, restart_after) ->
        Sim.Engine.schedule_after engine restart_after (fun () ->
            down := false;
            recovering := true;
            (match integ_link.reliable with
            | Some rl -> Sim.Reliable.reset_receiver rl
            | None -> ());
            (match ctrl_link.reliable with
            | Some rl -> Sim.Reliable.reset_receiver rl
            | None -> ());
            let epoch =
              match al_link.reliable with
              | Some rl -> Sim.Reliable.bump_epoch rl
              | None -> !resync_epoch + 1
            in
            resync_epoch := epoch;
            record "%s restarting, resync epoch %d" name epoch;
            al_link.send (`Resync epoch))
    in
    let guarded_emit inc al =
      if !incarnation <> inc || !down then ()
      else begin
        incr emit_count;
        match crash_spec with
        | Some (n, _) when !crash_armed && !emit_count = n -> crash ()
        | _ -> emit_to_merge al
      end
    in
    let compute_latency ~batch =
      sample (cfg.latencies.compute *. float_of_int (max 1 batch))
    in
    let build_inner ~inc =
      let emit = guarded_emit inc in
      match kind with
      | Strobe_vm ->
        Viewmgr.Strobe_vm.create ~engine ~query:remote_query ~view ~emit ()
      | Periodic_vm period ->
        Viewmgr.Periodic_vm.create ~engine ~period ~compute_latency
          ~initial:initial_db ~view ~emit ()
      | Convergent_vm ->
        Viewmgr.Convergent_vm.create ~engine
          ~emit_delay:(fun () ->
            sample (cfg.latencies.compute +. cfg.latencies.message))
          ~initial:initial_db ~view ~emit ()
      | Derived_vm { aux; over_aux } ->
        Viewmgr.Derived_vm.create ~engine ~compute_latency ~initial:initial_db
          ~aux ~view ~over_aux ~emit ()
      | Complete_vm | Selfmaint_vm | Batching_vm | Complete_n_vm _ ->
        let make_plan, drain = plan_shape kind in
        let plan, state =
          match !resume with
          | Some (plan, state) ->
            resume := None;
            (plan, Some state)
          | None when cfg.shared_plans -> (List.assoc name shared_plans, None)
          | None ->
            let plan = make_plan ~initial:initial_db view in
            if kind = Selfmaint_vm then begin
              let s = Selfmaint.Plan.storage plan in
              Metrics.add metrics.Metrics.aux_rows s.Selfmaint.Plan.aux_rows;
              Metrics.add metrics.Metrics.aux_cells s.Selfmaint.Plan.aux_cells;
              Metrics.add metrics.Metrics.aux_saved_cells
                (s.Selfmaint.Plan.replica_cells - s.Selfmaint.Plan.aux_cells)
            end;
            (plan, None)
        in
        Viewmgr.Plan_vm.create ~engine ~compute_latency ~exec ?state
          ~on_apply:aux_on_apply ~drain ~plan ~emit ()
    in
    let inner = ref (build_inner ~inc:0) in
    (* Application-level id dedup is only needed around crash recovery
       (replay overlaps live retransmissions); without a crash fault the
       raw channel behaviour — including duplicate delivery under
       reliability Off — must stay observable. *)
    let dedup = crash_spec <> None || process_crashes in
    let receive txn =
      if !down then ()
      else if !recovering then Queue.push txn pending_recovery
      else if dedup && txn.Update.Transaction.id <= !last_id then ()
      else begin
        last_id := txn.Update.Transaction.id;
        !inner.Viewmgr.Vm.receive txn
      end
    in
    receive_ref := receive;
    (ctrl_handler :=
       function
       | Resync_demand ->
         (* A restarted merge asks for a fresh handshake. The manager is
            alive and its state is intact, but anything in flight or
            unacked on the AL link belongs to a dead merge incarnation:
            fence the current inner manager (its pending emissions are
            re-derived by the replay) and re-run the resync protocol.
            A demand that lands mid-recovery restarts the handshake —
            the epoch bump voids any reply or replay the dead merge
            still owes us. *)
         if not !down then begin
           recovering := true;
           incr incarnation;
           let epoch =
             match al_link.reliable with
             | Some rl -> Sim.Reliable.bump_epoch rl
             | None -> !resync_epoch + 1
           in
           resync_epoch := epoch;
           record "%s resyncing on merge demand, epoch %d" name epoch;
           al_link.send (`Resync epoch)
         end
       | Resync_reply (epoch, w) ->
         if !recovering && epoch = !resync_epoch then begin
           (* Read the integrator's retained log (one query round trip),
              re-derive the plan's cache, and recompute the action
              lists the merge has not seen (states > watermark w). Both
              scheduled halves re-check the epoch: a newer handshake
              (another crash, a fresh merge demand) voids this one. *)
           Sim.Engine.schedule_after engine
             (sample cfg.latencies.query_roundtrip)
             (fun () ->
               if epoch <> !resync_epoch then ()
               else
               let head = Integrator.log_head integ in
               (* Recovery never queries the sources: the plan's cache is
                  rebuilt from the aux WAL checkpoint (when one exists at
                  or below the merge watermark — later checkpoints cannot
                  re-derive the action lists the merge still needs) or
                  from ss_0, plus the integrator log suffix, with every
                  replayed delta projected exactly like the live path.
                  The group state is built by the first re-derived list
                  and handed on, with plan and cache, to the resumed
                  manager. *)
               let make_plan, _ = plan_shape kind in
               let plan = make_plan ~initial:initial_db view in
               let start_cache, from_id =
                 match Option.map Durable.Wal.recover aux_wal with
                 | Some (Some (ck, id), _) when id <= w -> (ck, id)
                 | _ -> (Selfmaint.Plan.initial_cache plan, 0)
               in
               let cache = ref start_cache in
               let groups = ref Query.Compiled.no_groups in
               let replayed = ref [] in
               List.iter
                 (fun ((txn : Update.Transaction.t), _rel) ->
                   let id = txn.Update.Transaction.id in
                   let changes =
                     Selfmaint.Plan.project plan
                       (Query.Delta.of_transaction txn)
                   in
                   if id > w then begin
                     let delta, g =
                       Selfmaint.Plan.step ~exec plan ~pre:!cache
                         ~groups:!groups changes
                     in
                     groups := g;
                     replayed :=
                       Query.Action_list.delta ~view:name ~state:id delta
                       :: !replayed
                   end;
                   cache := Selfmaint.Plan.advance plan !cache changes)
                 (Integrator.replay_for integ ~view:name ~after:from_id);
               let lists = List.rev !replayed in
               let state = (plan, (!cache, !groups)) in
               let n = List.length lists in
               Sim.Engine.schedule_after engine
                 (compute_latency ~batch:(max 1 n))
                 (fun () ->
                   if epoch <> !resync_epoch then ()
                   else begin
                   List.iter emit_to_merge lists;
                   resume := Some state;
                   inner := build_inner ~inc:!incarnation;
                   last_id := head;
                   recovering := false;
                   Atomic.incr metrics.Metrics.recoveries;
                   record
                     "%s recovered: merge watermark %d, replayed %d lists \
                      up to U%d"
                     name w n head;
                   Queue.iter receive pending_recovery;
                   Queue.clear pending_recovery
                   end))
         end);
    let vm0 = !inner in
    let vm =
      { Viewmgr.Vm.view; level = vm0.Viewmgr.Vm.level;
        receive;
        flush =
          (fun () ->
            if (not !down) && not !recovering then !inner.Viewmgr.Vm.flush ());
        needs_ticks = vm0.Viewmgr.Vm.needs_ticks;
        pending =
          (fun () ->
            if !down then 0
            else
              !inner.Viewmgr.Vm.pending ()
              + Queue.length pending_recovery
              + if !recovering then 1 else 0) }
    in
    (vm, integ_link)
  in
  let vm_links = List.map make_vm views in
  let vms = List.map fst vm_links in
  (* Hand one group REL to a merge server — shared by live channel
     delivery and the restart-time state transfer (which bypasses the
     channel: FIFO server queues then guarantee the transferred RELs
     process before any replayed action list that needs them). *)
  let deliver_rel gi row rel_group =
    merge_server_of gi
      ( (fun () -> Mvc.Merge.receive_rel (merge_of gi) ~row ~rel:rel_group),
        fun () ->
          record "merge <- REL_%d = {%a}" row names rel_group;
          snapshot_group gi (merge_of gi);
          drain_emitted gi;
          sample_merge_metrics () )
  in
  let rel_chans =
    Array.of_list
    @@ List.mapi
      (fun gi _ ->
        let link =
          make_link ~name:"integ->merge" (fun (row, rel) ->
              if !merge_down then ()
              else begin
                note_merge_event ();
                if !merge_down then ()
                else if process_crashes && Hashtbl.mem rel_seen.(gi) row then
                  record "merge dropped duplicate REL_%d" row
                else begin
                  if process_crashes then Hashtbl.replace rel_seen.(gi) row ();
                  deliver_rel gi row rel
                end
              end)
        in
        merge_rx_down :=
          (fun d ->
            match link.reliable with
            | Some rl -> Sim.Reliable.set_receiver_down rl d
            | None -> ())
          :: !merge_rx_down;
        merge_rx_reset :=
          (fun () ->
            match link.reliable with
            | Some rl -> Sim.Reliable.reset_receiver rl
            | None -> ())
          :: !merge_rx_reset;
        integ_sender_bumps :=
          (fun () ->
            match link.reliable with
            | Some rl -> ignore (Sim.Reliable.bump_epoch rl)
            | None -> ())
          :: !integ_sender_bumps;
        link)
      groups
  in
  (* REL_i split by owning merge group: ascending group id, REL order
     within a group, groups with no relevant view absent. *)
  let split_rel rel = Integrator.route_shards ~assignment:merge_of_view rel in
  let group_last_routed = Array.make (List.length groups) 0 in
  (* REL_i to the merge(s) owning affected views: either directly
     (Figure 1) or carried by a relevant view manager (the Section 3.2
     alternative, which saves messages but lets RELs trail other
     managers' action lists). Factored out of ingest because integrator
     recovery re-routes the unsubmitted suffix of the restored log. *)
  let route_rels (stamped : Update.Transaction.t) rel =
    List.iter
      (fun (gi, rel_group) ->
        match cfg.rel_routing with
        | Direct ->
          rel_chans.(gi).send (stamped.Update.Transaction.id, rel_group)
        | Via_manager ->
          let carrier = List.hd rel_group in
          Queue.push
            (stamped.Update.Transaction.id, rel_group, group_last_routed.(gi))
            (forwards_of carrier);
          group_last_routed.(gi) <- stamped.Update.Transaction.id)
      (split_rel rel)
  in
  (* U_i to the relevant view managers (and tick-hungry ones), in
     manager order: REL_i's managers are found by name, so routing costs
     O(|REL_i|), not a pass over every manager. *)
  let vm_arr = Array.of_list vm_links in
  let vm_position = Hashtbl.create 16 in
  Array.iteri
    (fun i (vm, _) -> Hashtbl.replace vm_position (Viewmgr.Vm.name vm) i)
    vm_arr;
  let tick_hungry =
    List.filter
      (fun i -> (fst vm_arr.(i)).Viewmgr.Vm.needs_ticks)
      (List.init (Array.length vm_arr) Fun.id)
  in
  let route_updates (stamped : Update.Transaction.t) rel =
    List.iter
      (fun i -> (snd vm_arr.(i)).send stamped)
      (List.sort_uniq Int.compare
         (List.rev_append
            (List.filter_map (Hashtbl.find_opt vm_position) rel)
            tick_hungry))
  in
  let process_ingest txn =
    let stamped, rel = Integrator.ingest integ txn in
    assert (stamped.Update.Transaction.id = txn.Update.Transaction.id);
    if durable_on then begin
      Durable.Wal.append integ_wal (stamped, rel);
      if Integrator.ingested integ mod dur.integ_checkpoint_every = 0 then
        Durable.Wal.seal integ_wal
    end;
    record "integrator: U%d (%a) REL = {%a}" stamped.Update.Transaction.id
      Update.Transaction.pp stamped names rel;
    route_rels stamped rel;
    route_updates stamped rel;
    let pending =
      List.fold_left (fun acc vm -> acc + vm.Viewmgr.Vm.pending ()) 0 vms
    in
    Sim.Stats.Summary.add metrics.Metrics.vm_queue (float_of_int pending)
  in
  let integrator_link =
    make_link ~faultable:false ~name:"sources->integ" (fun txn ->
        if !integ_down then
          record "integrator down: U%d ignored in flight"
            txn.Update.Transaction.id
        else if
          durable_on
          && txn.Update.Transaction.id < Integrator.next_id integ
        then
          (* Post-restart ARQ retransmit of a transaction the recovery
             re-fetch already pulled from the sources. *)
          record "integrator dropped duplicate U%d" txn.Update.Transaction.id
        else begin
          note_integ_event ();
          if !integ_down then
            record "integrator crashed receiving U%d (re-fetched on restart)"
              txn.Update.Transaction.id
          else process_ingest txn
        end)
  in
  (* ---- process crash bodies ----

     [wipe_*] runs synchronously at the crash instant and models the loss
     of the process's in-memory state; recovery is scheduled
     [restart_after] later (reliability [Acked] only — under [Off] there
     is no resync protocol and the process stays dead: stuck-but-safe,
     exactly like an unrecovered view-manager crash). *)
  let wipe_merge () =
    merge_down := true;
    List.iter (fun f -> f true) !merge_rx_down;
    merge_servers_reset ();
    Array.iter Queue.clear emitted;
    Array.iter Hashtbl.reset rel_seen;
    Hashtbl.reset watermarks
  in
  let restart_merge () =
    (* Fresh merge incarnations with empty VUTs. The row dedup is seeded
       with every submitted row (their RELs must never be re-ingested),
       and the watermark table restarts at what actually reached the
       warehouse — the resync replies tell each manager to replay
       everything after that. *)
    Array.iteri
      (fun gi group -> merge_arr.(gi) <- make_merge gi group)
      groups_arr;
    Array.iteri
      (fun gi _ ->
        let seen = rel_seen.(gi) in
        Hashtbl.reset seen;
        Hashtbl.iter (fun row () -> Hashtbl.replace seen row ()) submitted_rows;
        snapshot_group gi (merge_of gi))
      groups_arr;
    Hashtbl.reset watermarks;
    Hashtbl.iter (fun v s -> Hashtbl.replace watermarks v s) submitted_marks;
    (* Fence every manager's stream until its fresh-epoch [`Resync]
       marker arrives — adopted pre-crash frames must not reach SPA. *)
    List.iter
      (fun v -> Hashtbl.replace awaiting_resync (Query.View.name v) ())
      views;
    List.iter (fun reset -> reset ()) !merge_rx_reset;
    List.iter (fun bump -> bump ()) !ctrl_bumps;
    merge_down := false
  in
  let merge_state_transfer () =
    (* State transfer from the integrator's retained log: the complete
       group-REL set for every unsubmitted row, handed straight into the
       merge servers in id order. The FIFO server queues then guarantee
       each replayed action list (which arrives strictly later, after the
       resync handshake) processes after every REL it depends on. *)
    List.iter
      (fun ((stamped : Update.Transaction.t), rel) ->
        let row = stamped.Update.Transaction.id in
        if not (Hashtbl.mem submitted_rows row) then
          List.iter
            (fun (gi, rel_group) ->
              if not (Hashtbl.mem rel_seen.(gi) row) then begin
                Hashtbl.replace rel_seen.(gi) row ();
                record "merge restart: REL_%d transferred from integrator log"
                  row;
                deliver_rel gi row rel_group
              end)
            (split_rel rel))
      (Integrator.retained_log integ);
    List.iter (fun send -> send Resync_demand) !vm_ctrls
  in
  crash_merge_ref :=
    (fun () ->
      let crashed_at = Sim.Engine.now engine in
      Atomic.incr metrics.Metrics.crashes;
      record "merge crashed (losing VUT, reorderers and queued work)";
      wipe_merge ();
      match (cfg.reliability, merge_crash_spec) with
      | Off, _ | _, None -> ()
      | Acked _, Some (_, restart_after) ->
        Sim.Engine.schedule_after engine restart_after (fun () ->
            restart_merge ();
            Atomic.incr metrics.Metrics.recoveries;
            recovery_total :=
              !recovery_total +. (Sim.Engine.now engine -. crashed_at);
            record "merge restarted; reading integrator log for transfer";
            Sim.Engine.schedule_after engine
              (sample cfg.latencies.query_roundtrip)
              merge_state_transfer));
  crash_integ_ref :=
    (fun () ->
      let crashed_at = Sim.Engine.now engine in
      integ_down := true;
      Atomic.incr metrics.Metrics.crashes;
      record "integrator crashed (losing numbering and log)";
      Durable.Wal.crash integ_wal;
      (match integrator_link.reliable with
      | Some rl -> Sim.Reliable.set_receiver_down rl true
      | None -> ());
      match (cfg.reliability, integ_crash_spec) with
      | Off, _ | _, None -> ()
      | Acked _, Some (_, restart_after) ->
        Sim.Engine.schedule_after engine restart_after (fun () ->
            let ck_log, tail = Durable.Wal.recover_sealed integ_wal in
            let log = ck_log @ tail in
            (* Every ingest is logged before it routes, so the numbering
               position is derivable from the log itself. *)
            let next_id =
              List.fold_left
                (fun acc ((t : Update.Transaction.t), _) ->
                  max acc (t.Update.Transaction.id + 1))
                1 log
            in
            wal_replayed := !wal_replayed + List.length tail;
            Integrator.restore integ ~next_id ~log;
            record
              "integrator restored: next id %d (%d WAL records replayed)"
              next_id (List.length tail);
            Sim.Engine.schedule_after engine
              (dur.replay_latency *. float_of_int (List.length tail))
              (fun () ->
                (* Void every frame the dead incarnation left unacked,
                   then re-route the unsubmitted suffix of the restored
                   log: receivers dedup (rel_seen per merge group, id
                   watermark per manager), so over-sending is safe while
                   under-sending would lose updates. *)
                List.iter (fun bump -> bump ()) !integ_sender_bumps;
                List.iter
                  (fun ((stamped : Update.Transaction.t), rel) ->
                    if
                      not
                        (Hashtbl.mem submitted_rows
                           stamped.Update.Transaction.id)
                    then begin
                      record "integrator re-sends U%d after restart"
                        stamped.Update.Transaction.id;
                      route_rels stamped rel;
                      route_updates stamped rel
                    end)
                  (Integrator.retained_log integ);
                (* Catch up on transactions lost with the dead
                   incarnation: the sources retain their committed log
                   (the paper's ground-truth boundary) and answer a
                   catch-up query for everything at or above the restored
                   numbering position. *)
                Atomic.incr metrics.Metrics.source_queries;
                let issued = Sim.Engine.now engine in
                Sim.Engine.schedule_after engine
                  (sample cfg.latencies.query_roundtrip)
                  (fun () ->
                    Sim.Stats.Summary.add
                      metrics.Metrics.source_query_latency
                      (Sim.Engine.now engine -. issued);
                    let missed =
                      List.filter
                        (fun (t : Update.Transaction.t) ->
                          t.Update.Transaction.id >= Integrator.next_id integ)
                        (Source.Sources.transactions sources)
                    in
                    List.iter process_ingest missed;
                    (match integrator_link.reliable with
                    | Some rl -> Sim.Reliable.reset_receiver rl
                    | None -> ());
                    integ_down := false;
                    Atomic.incr metrics.Metrics.recoveries;
                    recovery_total :=
                      !recovery_total +. (Sim.Engine.now engine -. crashed_at);
                    record
                      "integrator recovered (%d source transactions \
                       re-fetched)"
                      (List.length missed)))));
  crash_wh_ref :=
    (fun () ->
      let crashed_at = Sim.Engine.now engine in
      wh_down := true;
      Atomic.incr metrics.Metrics.crashes;
      record "warehouse crashed (losing store and submitter queue)";
      Durable.Wal.crash wh_wal;
      Warehouse.Submitter.reset submitter;
      Hashtbl.reset submitted_rows;
      Hashtbl.reset submitted_marks;
      serving_freeze serving true;
      (* Submitted-but-uncommitted WTs died in the submitter queue while
         the merge had already retired their rows; the merge restarts too
         and re-derives them from the integrator log + manager replay. *)
      wipe_merge ();
      match (cfg.reliability, wh_crash_spec) with
      | Off, _ | _, None -> ()
      | Acked _, Some (_, restart_after) ->
        Sim.Engine.schedule_after engine restart_after (fun () ->
            let restored_ck, tail = Durable.Wal.recover_sealed wh_wal in
            let commits = restored_ck @ tail in
            wal_replayed := !wal_replayed + List.length tail;
            record "warehouse restored: %d commits (%d from the WAL tail)"
              (List.length commits) (List.length tail);
            Sim.Engine.schedule_after engine
              (dur.replay_latency *. float_of_int (List.length tail))
              (fun () ->
                Warehouse.Store.restore store commits;
                commits_restored := !commits_restored + List.length commits;
                List.iter (fun (_, wt) -> note_submitted wt) commits;
                (* Republish the restored version history, then unfreeze:
                   sessions resume against indices identical to the
                   pre-crash ones. *)
                serving_recover serving (Warehouse.Store.commits store);
                serving_freeze serving false;
                wh_down := false;
                restart_merge ();
                Atomic.incr metrics.Metrics.recoveries;
                recovery_total :=
                  !recovery_total +. (Sim.Engine.now engine -. crashed_at);
                record
                  "warehouse recovered (%d commits restored); merge \
                   restarting"
                  (List.length commits);
                Sim.Engine.schedule_after engine
                  (sample cfg.latencies.query_roundtrip)
                  merge_state_transfer)));
  schedule_script engine arrival_rng cfg ~execute:(fun updates ->
      let txn = Source.Sources.execute sources updates in
      record "source commit: U%d at %s" txn.Update.Transaction.id
        txn.Update.Transaction.source;
      Atomic.incr metrics.Metrics.transactions;
      Hashtbl.replace arrival_times txn.Update.Transaction.id
        (Sim.Engine.now engine);
      integrator_link.send txn);
  let drained () =
    (not !merge_down) && (not !integ_down) && (not !wh_down)
    && List.for_all (fun vm -> vm.Viewmgr.Vm.pending () = 0) vms
    && merge_servers_pending () = 0
    && Array.for_all Queue.is_empty emitted
    && List.for_all (fun (_, held) -> held () = 0) rel_reorderers
    && Array.for_all Mvc.Merge.quiescent merge_arr
    && Warehouse.Submitter.outstanding submitter = 0
    && serving_pending serving = 0
    && List.for_all (fun q -> q ()) !quiescence
  in
  let ok =
    drain engine
      ~flushes:
        (List.map (fun vm -> vm.Viewmgr.Vm.flush) vms
        @ List.init n_groups (fun gi () ->
              (* Flush runs between engine passes, with no job in flight;
                 refresh the group's snapshot and submit anything the
                 flush emitted so snapshots track live state exactly. A
                 down merge has nothing to flush (its restart is an
                 engine event, so it never interleaves with a flush). *)
              if not !merge_down then begin
                let m = merge_of gi in
                Mvc.Merge.flush m;
                snapshot_group gi m;
                drain_emitted gi
              end))
      ~drained
  in
  if (not ok) && faultless cfg then
    raise (Stuck "system failed to drain after flushing view managers");
  metrics.Metrics.completed_at <- Sim.Engine.now engine;
  finalize_perf_metrics metrics ~kernel0 ~slots ~serving;
  Metrics.add metrics.Metrics.msgs_dropped
    (List.fold_left (fun acc d -> acc + d ()) 0 !drop_counts);
  List.iter
    (fun get ->
      let s = get () in
      Metrics.add metrics.Metrics.retransmits s.Sim.Reliable.retransmits;
      Metrics.add metrics.Metrics.acks s.Sim.Reliable.acks_sent;
      Metrics.add metrics.Metrics.nacks s.Sim.Reliable.nacks_sent;
      Metrics.add metrics.Metrics.dup_frames_dropped
        s.Sim.Reliable.dups_dropped
      (* give-ups are counted at event time by the link's on_give_up
         hook, not re-added here *))
    !link_stats;
  let durability =
    if durable_on then begin
      let a = Durable.Wal.stats wh_wal and b = Durable.Wal.stats integ_wal in
      let aux =
        List.map (fun (_, wal) -> Durable.Wal.stats wal) !aux_wals
      in
      let total f = List.fold_left (fun acc s -> acc + f s) (f a + f b) aux in
      Some
        { wal_appends = total (fun s -> s.Durable.Disk.appends);
          wal_syncs = total (fun s -> s.Durable.Disk.syncs);
          wal_bytes = total (fun s -> s.Durable.Disk.synced_bytes);
          wal_checkpoints = total (fun s -> s.Durable.Disk.checkpoints);
          wal_truncated = total (fun s -> s.Durable.Disk.truncated_records);
          torn_discarded = total (fun s -> s.Durable.Disk.torn_discarded);
          wal_replayed = !wal_replayed;
          commits_restored = !commits_restored;
          dup_wts_dropped = !dup_wts;
          recovery_time = !recovery_total }
    end
    else None
  in
  { config = cfg; store; sources;
    transactions = Source.Sources.transactions sources; metrics;
    merge_algorithm = Mvc.Merge.algorithm_name algorithm;
    timeline = List.rev !timeline; stuck = not ok;
    serving = serving_result serving; durability;
    fused =
      (if cfg.merge_batch = Fused then
         Some (List.rev !fused_emitted, List.rev !fused_parts)
       else None) }

(* Every configuration corner a run cannot serve is refused here, before
   any engine, WAL or store exists.

   Shared slots advance once per transaction, in id order, on the first
   referrer's demand; a configuration that breaks that discipline is
   refused rather than run unshared.

   The crash-recovery protocol leans on invariants only one corner of
   the configuration space provides: the pipelined runtime's processes,
   SPA's one-WT-per-row discipline (submitted rows identify completed
   work), complete managers (re-derivable from the integrator log),
   direct REL routing (the integrator, not a manager, is the authority
   re-sending RELs), no semantic filtering (syntactic REL sets are
   reproducible), and a full commit history (checkpoints re-apply it). *)
let check_config cfg =
  let refuse why = invalid_arg ("System: shared_plans " ^ why) in
  if cfg.shared_plans then begin
    if not (faultless cfg) then
      refuse
        "needs a fault-free run: a lost message or a crash replays a \
         view's transactions out of step with the shared slots";
    if cfg.semantic_filter then
      refuse
        "excludes semantic_filter: a filtered view skips transactions the \
         shared slots it reads must advance through";
    if cfg.merge_kind <> Sequential then
      List.iter
        (fun v ->
          let refuse_manager why =
            refuse
              (Printf.sprintf "needs Complete_vm managers: view %s's manager %s"
                 (Query.View.name v) why)
          in
          match kind_of cfg v with
          | Complete_vm -> ()
          | Selfmaint_vm ->
            refuse_manager
              "keeps projected auxiliaries, and slots read full replicas"
          | Batching_vm | Complete_n_vm _ ->
            refuse_manager
              "steps several transactions at once, and slots advance one at \
               a time"
          | Strobe_vm | Periodic_vm _ | Convergent_vm | Derived_vm _ ->
            refuse_manager "steps no plan, so nothing would be shared")
        cfg.scenario.Workload.Scenarios.views
  end;
  if process_crash_faults cfg then begin
    let crash_needs what =
      invalid_arg ("System: process crash faults require " ^ what)
    in
    if cfg.merge_kind = Sequential then
      invalid_arg
        "System: process crash faults (merge/integrator/warehouse) need the \
         pipelined runtime";
    if cfg.merge_batch = Fused then
      crash_needs
        "a non-Fused merge_batch (recovery identifies completed work by \
         per-row WTs)";
    if cfg.rel_routing <> Direct then crash_needs "Direct REL routing";
    if cfg.semantic_filter then crash_needs "semantic_filter = false";
    if
      not
        (List.for_all
           (fun v ->
             match kind_of cfg v with
             | Complete_vm | Selfmaint_vm -> true
             | _ -> false)
           cfg.scenario.Workload.Scenarios.views)
    then crash_needs "Complete_vm or Selfmaint_vm view managers";
    if algorithm_for cfg <> Mvc.Merge.Spa then crash_needs "the SPA merge";
    if cfg.store_retention <> Warehouse.Store.Keep_all then
      crash_needs
        "Keep_all store retention (checkpoints re-apply the full commit \
         history)"
  end

let run cfg =
  check_config cfg;
  match cfg.merge_kind with
  | Sequential -> run_sequential cfg
  | Auto | Force_spa | Force_pa | Force_passthrough | Force_holdall ->
    run_pipelined cfg

let verdict_with_witness result =
  Consistency.Checker.check_with_witness
    ~views:result.config.scenario.views ~transactions:result.transactions
    ~source_states:(Source.Sources.states result.sources)
    ~warehouse_states:(Warehouse.Store.states result.store)

let verdict result = fst (verdict_with_witness result)

let view_contents result name =
  Relation.contents (Warehouse.Store.view result.store name)

(* The crash-recovery certificate: durability (every relevant
   (view, transaction) application reached some committed WT),
   idempotence (none reached two), and serving monotonicity (no
   monotonic-by-contract session observed versions going backwards
   across a restart). Expected pairs come from syntactic relevance —
   exactly the action lists complete managers emit, including
   empty-delta ones. *)
let recovery_certificate result =
  let views = result.config.scenario.Workload.Scenarios.views in
  let expected =
    List.concat_map
      (fun (txn : Update.Transaction.t) ->
        let rels = Update.Transaction.relations txn in
        List.filter_map
          (fun v ->
            if List.exists (fun r -> Query.View.uses v r) rels then
              Some (Query.View.name v, txn.Update.Transaction.id)
            else None)
          views)
      result.transactions
  in
  let applied =
    List.map
      (fun (c : Warehouse.Store.commit) ->
        List.map
          (fun al -> (al.Query.Action_list.view, al.Query.Action_list.state))
          c.transaction.Warehouse.Wt.actions)
      (Warehouse.Store.commits result.store)
  in
  let served =
    match result.serving with
    | None -> []
    | Some s ->
      let by_session : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun r ->
          let monotonic =
            r.read_as_of = None
            &&
            match r.read_guarantee with
            | Serve.Session.Latest | Serve.Session.Monotonic_reads -> true
            | Serve.Session.Bounded_staleness _ -> false
          in
          if monotonic then begin
            let l =
              match Hashtbl.find_opt by_session r.read_session with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.add by_session r.read_session l;
                order := r.read_session :: !order;
                l
            in
            l := r.read_version :: !l
          end)
        s.reads_served;
      List.rev_map
        (fun sid -> (sid, List.rev !(Hashtbl.find by_session sid)))
        !order
  in
  Consistency.Checker.certify_recovery ~expected ~applied ~served

(* The fused-merge certificate: rebuild each fused batch from the
   recorded parts and the store's commit history (pre/post states are
   the states around the batch's commit), then let the checker prove
   coverage, no duplication, emission contiguity and replay exactness.
   Requires [Keep_all] retention — the replay needs every commit. *)
let fused_certificate result =
  match result.fused with
  | None ->
    invalid_arg "System.fused_certificate: run did not use merge_batch = Fused"
  | Some (emitted, parts) ->
    let states = Warehouse.Store.states result.store in
    let commits = Warehouse.Store.commits result.store in
    if List.length commits + 1 <> List.length states then
      invalid_arg
        "System.fused_certificate: pruned commit history (use Keep_all \
         store retention)";
    (* Batches in release order; each looks up its commit — and the
       states around it — by its covered-row set (unique across batches
       when no duplication happened; a duplicate fails the checker's
       no-dup clause against whichever commit it grabs). *)
    let indexed = List.mapi (fun i c -> (i, c)) commits in
    let states_arr = Array.of_list states in
    let batches =
      List.map
        (fun batch_parts ->
          let rows = List.concat_map fst batch_parts in
          let at =
            List.find_opt
              (fun (_, (c : Warehouse.Store.commit)) ->
                c.transaction.Warehouse.Wt.rows = rows)
              indexed
          in
          match at with
          | None ->
            (* No commit carries these rows: synthesize an impossible
               batch (empty actions, initial states) so the checker's
               coverage clause reports the mismatch instead of this
               function raising. *)
            { Consistency.Checker.fb_parts = batch_parts; fb_rows = rows;
              fb_actions = []; fb_pre = states_arr.(0);
              fb_post = states_arr.(0) }
          | Some (i, c) ->
            { Consistency.Checker.fb_parts = batch_parts;
              fb_rows = c.transaction.Warehouse.Wt.rows;
              fb_actions = c.transaction.Warehouse.Wt.actions;
              fb_pre = states_arr.(i); fb_post = states_arr.(i + 1) })
        parts
    in
    Consistency.Checker.certify_fused ~emitted ~batches
