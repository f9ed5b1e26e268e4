open Relational
include Config

exception Stuck of string

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

let kind_of cfg view =
  match List.assoc_opt (Query.View.name view) cfg.vm_overrides with
  | Some kind -> kind
  | None -> cfg.vm_kind

let level_of = function
  | (Complete_vm | Selfmaint_vm | Batching_vm | Complete_n_vm _) as kind ->
    Viewmgr.Plan_vm.level (snd (Vm_host.plan_shape kind))
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

(* Schedule a script along an arrival process; returns the horizon, the
   last arrival instant. *)
let schedule_script engine rng arrival script ~execute =
  let clock = ref 0.0 in
  List.fold_left
    (fun horizon updates ->
      let at = Proc.next_arrival rng arrival clock in
      Sim.Engine.schedule_at engine at (fun () -> execute updates);
      Float.max horizon at)
    0.0 script

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

(* Fold the run-scoped perf counters into the metrics at drain time: the
   query-kernel counters accrued since the run started, the shared
   slots' hit/miss/maintenance tallies, and the result cache's counts. *)
let finalize_perf_metrics metrics ~kernel0 ~slots ~serving =
  Metrics.add_kernel_counters_since metrics kernel0;
  Option.iter
    (fun slots ->
      let s = Selfmaint.Plan.slot_stats slots in
      Metrics.add metrics.Metrics.shared_hits s.Selfmaint.Plan.hits;
      Metrics.add metrics.Metrics.shared_misses s.Selfmaint.Plan.misses;
      Metrics.add metrics.Metrics.shared_rows s.Selfmaint.Plan.rows_maintained)
    slots;
  Option.iter (fun s -> Serving_proc.fold_stats s metrics) serving

let serving_pending = function Some s -> Serving_proc.pending s | None -> 0

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

let make_store cfg initial views =
  Warehouse.Store.create ~retention:cfg.store_retention
    (List.map
       (fun v -> (Query.View.name v, Query.View.materialize initial v))
       views)

(* The Section 1.1 baseline: one process, sequential handling of updates,
   one warehouse transaction per update, waiting for each commit. *)
let run_sequential cfg =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let arrival_rng = Sim.Rng.split rng in
  let lat_rng = Sim.Rng.split rng in
  let sources = Workload.Scenarios.sources cfg.scenario in
  let views = effective_views cfg (Source.Sources.schema_lookup sources) in
  let initial_db = Source.Sources.initial sources in
  let store = make_store cfg initial_db views in
  let metrics = Metrics.create () in
  let kernel0 = Metrics.kernel_counters () in
  let sample mean = Sim.Rng.exponential lat_rng ~mean in
  let exec = Parallel.Config.exec cfg.parallel in
  let ctx = Proc.context ~record_timeline:false engine ~exec ~metrics ~sample in
  let plans, slots = view_plans cfg ~initial:initial_db views in
  (* Each view with its plan and the plan's [Group_by] state. *)
  let managed =
    List.map2
      (fun v plan -> (v, plan, ref Query.Compiled.no_groups))
      views plans
  in
  let serving =
    Option.map
      (Serving_proc.create ctx ~rng ~latencies:cfg.latencies ~store ~views)
      cfg.reads
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
      Sim.Engine.schedule_after engine
        (compute_time +. sample cfg.latencies.commit)
        (fun () ->
          if actions <> [] then begin
            let wt = Warehouse.Wt.make ~rows:[ txn.id ] actions in
            Warehouse.Store.apply store ~time:(Sim.Engine.now engine) wt;
            Atomic.incr metrics.Metrics.commits;
            Metrics.add metrics.Metrics.actions_applied
              (Warehouse.Wt.action_count wt);
            Option.iter
              (fun s ->
                Serving_proc.publish ctx s store ~changed:(Warehouse.Wt.views wt))
              serving;
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
  ignore
    (schedule_script engine arrival_rng cfg.arrival cfg.scenario.script
       ~execute:(fun updates ->
         let txn = Source.Sources.execute sources updates in
         Atomic.incr metrics.Metrics.transactions;
         Hashtbl.replace arrival_times txn.Update.Transaction.id
           (Sim.Engine.now engine);
         Sim.Channel.send integrator_chan txn));
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
    serving = Option.map Serving_proc.result serving; durability = None;
    fused = None }

(* The config's channel-level fault plan plus the deterministic
   translation of Drop_action_list faults (the nth physical message on
   the manager's action-list channel). Injection happens in the channel,
   so sent/delivered/dropped statistics stay truthful. *)
let fault_plan cfg =
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

(* The crash trigger of each process, from its crash fault: merge,
   integrator, warehouse, and per view its manager's. *)
let crash_triggers cfg =
  let find f = Proc.trigger cfg.reliability (List.find_map f cfg.faults) in
  ( find (function
      | Crash_merge { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None),
    find (function
      | Crash_integrator { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None),
    find (function
      | Crash_warehouse { at_event; restart_after } ->
        Some (at_event, restart_after)
      | _ -> None),
    fun name ->
      find (function
        | Crash_vm { view; at_event; restart_after } when String.equal view name
          ->
          Some (at_event, restart_after)
        | _ -> None) )

(* What a warehouse commit reports: the timeline line, the commit
   counters, the published version, the covered updates' staleness and
   the occupancy of every memoized index of the views it touched. *)
let on_commit (ctx : Proc.ctx) ~store ~serving ~arrival_times wt =
  let m = ctx.metrics and views = Warehouse.Wt.views wt in
  ctx.record "warehouse commit: rows [%a] -> views {%a}" Proc.row_ids
    wt.Warehouse.Wt.rows Proc.names views;
  Atomic.incr m.Metrics.commits;
  Metrics.add m.Metrics.actions_applied (Warehouse.Wt.action_count wt);
  Option.iter (fun s -> Serving_proc.publish ctx s store ~changed:views) serving;
  List.iter
    (fun row ->
      Option.iter
        (fun t0 ->
          Sim.Stats.Summary.add m.Metrics.staleness (Proc.now ctx -. t0))
        (Hashtbl.find_opt arrival_times row))
    wt.Warehouse.Wt.rows;
  List.iter
    (fun v ->
      List.iter
        (fun (o : Bag_index.occupancy) ->
          Sim.Stats.Summary.add m.Metrics.index_slots
            (float_of_int o.Bag_index.slots);
          Sim.Stats.Summary.add m.Metrics.index_live
            (float_of_int o.Bag_index.live))
        (Relation.index_stats (Warehouse.Store.view store v)))
    views

(* One view manager process with its three links, built in the order
   and under the names the fault plan and [link_rng] expect: control
   merge -> manager, action lists manager -> merge, updates integrator
   -> manager. *)
let host_view cfg env links mp ~crash_of ~shared view =
  let name = Query.View.name view in
  let control = ref ignore in
  let ctrl =
    Link.make links ~name:("merge->" ^ name) (fun msg -> !control msg)
  in
  let al =
    Link.make links ~name:(name ^ "->merge")
      (Merge_proc.receive_vm mp ~view:name ~reply:ctrl.Link.send)
  in
  Merge_proc.connect mp ~al ~ctrl;
  let host =
    Vm_host.create env ~kind:(kind_of cfg view) ~view
      ~crash:(crash_of name)
      ~shared:(List.assoc_opt name shared) ~al
  in
  let feed = Link.make links ~name:("integ->" ^ name) (Vm_host.receive host) in
  control := Vm_host.control host;
  host.Vm_host.feed <- Link.port feed;
  host.Vm_host.ctrl <- Link.port ctrl;
  (host, feed)

let durability_report (ctx : Proc.ctx) ~(wh : Warehouse_proc.t)
    ~(ip : Integrator_proc.t) =
  let stats =
    Durable.Wal.stats wh.wal :: Durable.Wal.stats ip.wal
    :: List.filter_map
         (fun (h : Vm_host.t) -> Option.map Durable.Wal.stats h.aux_wal)
         (Array.to_list ip.hosts)
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  { wal_appends = total (fun s -> s.Durable.Disk.appends);
    wal_syncs = total (fun s -> s.Durable.Disk.syncs);
    wal_bytes = total (fun s -> s.Durable.Disk.synced_bytes);
    wal_checkpoints = total (fun s -> s.Durable.Disk.checkpoints);
    wal_truncated = total (fun s -> s.Durable.Disk.truncated_records);
    torn_discarded = total (fun s -> s.Durable.Disk.torn_discarded);
    wal_replayed = ctx.recovery.wal_replayed;
    commits_restored = wh.commits_restored;
    dup_wts_dropped = wh.dup_wts;
    recovery_time = ctx.recovery.recovery_time }

(* The Figure 1 pipeline, assembled from its process components: sources
   feed the integrator, which routes REL_i to the merge groups and U_i
   to the view managers; the managers' action lists meet the RELs at the
   merges, whose ready runs the warehouse commits. *)
let run_pipelined cfg =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let arrival_rng = Sim.Rng.split rng in
  let lat_rng = Sim.Rng.split rng in
  let metrics = Metrics.create () and timeline = ref [] in
  let ctx =
    Proc.context ~timeline ~record_timeline:cfg.record_timeline engine
      ~exec:(Parallel.Config.exec cfg.parallel) ~metrics
      ~sample:(fun mean -> Sim.Rng.exponential lat_rng ~mean)
  in
  let fault_rng = Sim.Rng.split rng in
  let link_rng = Sim.Rng.split rng in
  let links =
    Link.factory engine ~reliability:cfg.reliability ~plan:(fault_plan cfg)
      ~fault_rng ~link_rng
      ~latency:(fun () -> ctx.sample cfg.latencies.message)
      ~on_give_up:(fun name ->
        (* Link death surfaced at the instant it happens, not just as an
           end-of-run statistic. *)
        Atomic.incr metrics.Metrics.gave_up;
        ctx.record "link %s gave up on a frame after max retries" name)
  in
  let sources = Workload.Scenarios.sources cfg.scenario in
  let schemas = Source.Sources.schema_lookup sources in
  let views = effective_views cfg schemas in
  let initial = Source.Sources.initial sources in
  let store = make_store cfg initial views in
  let kernel0 = Metrics.kernel_counters () in
  (* Under [shared_plans] every view is a complete manager ([run] checks
     it), and their plans are built here, together, so they share one
     slot table. *)
  let shared, slots =
    if cfg.shared_plans then
      let plans, slots = view_plans cfg ~initial views in
      (List.combine (List.map Query.View.name views) plans, slots)
    else ([], None)
  in
  let arrival_times = Hashtbl.create 64 in
  let serving =
    Option.map
      (Serving_proc.create ctx ~rng ~latencies:cfg.latencies ~store ~views)
      cfg.reads
  in
  (* Process crashes wipe a whole process's in-memory state and recover
     from the durable layer: two write-ahead logs back the two stateful
     singleton processes, and self-maintaining managers log their
     auxiliary state. *)
  let process_crashes = process_crash_faults cfg in
  let durable =
    if process_crashes || cfg.durable <> None then
      Some (Option.value ~default:default_durability cfg.durable)
    else None
  in
  let dur = Option.value ~default:default_durability durable in
  let merge_crash, integ_crash, wh_crash, vm_crash = crash_triggers cfg in
  let wh =
    Warehouse_proc.create ctx ~policy:cfg.submit
      ~commit_latency:cfg.latencies.commit ~store ~durable
      ~fused:(cfg.merge_batch = Fused) ~track:process_crashes
      ~crash:wh_crash
      ~on_commit:(on_commit ctx ~store ~serving ~arrival_times)
  in
  let algorithm = algorithm_for cfg in
  let mp =
    Merge_proc.create ctx ~algorithm
      ~groups:(Merge_proc.partition ~initial views cfg.merge_groups)
      ~batch:(cfg.merge_batch = Fused) ~latency:cfg.latencies.merge
      ~dedup:process_crashes ~crash:merge_crash ~wh
  in
  (* Crash recovery of a manager replays the integrator's retained log. *)
  let retain_log =
    durable <> None
    || List.exists (function Crash_vm _ -> true | _ -> false) cfg.faults
  in
  let integ =
    Integrator.create ~semantic_filter:cfg.semantic_filter ~retain_log ~schemas
      views
  in
  let env =
    { Vm_host.ctx; latencies = cfg.latencies; initial; integ; sources;
      aux_durability = durable; dedup_all = process_crashes }
  in
  let hosted =
    List.map (host_view cfg env links mp ~crash_of:vm_crash ~shared) views
  in
  let rel_links =
    Array.mapi
      (fun gi _ ->
        let link =
          Link.make links ~name:"integ->merge" (Merge_proc.receive_rel mp gi)
        in
        Merge_proc.listen mp link;
        link)
      mp.Merge_proc.groups
  in
  let ip =
    Integrator_proc.create ctx ~integ ~durable ~routing:cfg.rel_routing
      ~rel_links
      ~hosts:(Array.of_list (List.map fst hosted))
      ~vm_links:(Array.of_list (List.map snd hosted))
      ~group_of:(Merge_proc.group_of mp) ~crash:integ_crash
  in
  let feed =
    Link.make links ~faultable:false ~name:"sources->integ"
      (Integrator_proc.receive ip)
  in
  ip.feed <- Link.port feed;
  let query_roundtrip = cfg.latencies.query_roundtrip in
  merge_crash.fire <-
    (fun () -> Merge_proc.crash mp ~integ ~latency:query_roundtrip);
  integ_crash.fire <-
    (fun () ->
      Integrator_proc.crash ip ~replay_latency:dur.replay_latency
        ~latency:query_roundtrip ~sources
        ~submitted:(Warehouse_proc.submitted wh));
  (* Submitted-but-uncommitted WTs die in the submitter queue while the
     merge has already retired their rows, so the merge restarts with the
     warehouse and re-derives them from the integrator log + manager
     replay; sessions resume against the republished version history. *)
  wh_crash.fire <-
    (fun () ->
      Warehouse_proc.crash wh ~replay_latency:dur.replay_latency
        ~on_down:(fun () ->
          Option.iter (fun s -> Serving_proc.freeze s true) serving;
          Merge_proc.wipe mp)
        ~on_restored:(fun () ->
          Option.iter
            (fun s ->
              Serving_proc.recover s store;
              Serving_proc.freeze s false)
            serving;
          Merge_proc.restart mp;
          Merge_proc.schedule_transfer mp integ ~latency:query_roundtrip));
  ignore
    (schedule_script engine arrival_rng cfg.arrival cfg.scenario.script
       ~execute:(fun updates ->
         let txn = Source.Sources.execute sources updates in
         ctx.record "source commit: U%d at %s" txn.Update.Transaction.id
           txn.Update.Transaction.source;
         Atomic.incr metrics.Metrics.transactions;
         Hashtbl.replace arrival_times txn.Update.Transaction.id (Proc.now ctx);
         feed.send txn));
  let vms = Array.to_list ip.vms in
  let drained () =
    (not ip.down) && (not wh.down)
    && List.for_all (fun vm -> vm.Viewmgr.Vm.pending () = 0) vms
    && Merge_proc.quiescent mp
    && Warehouse_proc.outstanding wh = 0
    && serving_pending serving = 0
    && Link.quiescent links
  in
  let ok =
    drain engine
      ~flushes:
        (List.map (fun vm -> vm.Viewmgr.Vm.flush) vms
        @ List.init (Array.length mp.groups) (fun gi () ->
              Merge_proc.flush mp gi))
      ~drained
  in
  if (not ok) && faultless cfg then
    raise (Stuck "system failed to drain after flushing view managers");
  metrics.Metrics.completed_at <- Proc.now ctx;
  finalize_perf_metrics metrics ~kernel0 ~slots ~serving;
  Link.fold_stats links metrics;
  { config = cfg; store; sources;
    transactions = Source.Sources.transactions sources; metrics;
    merge_algorithm = Mvc.Merge.algorithm_name algorithm;
    timeline = List.rev !timeline; stuck = not ok;
    serving = Option.map Serving_proc.result serving;
    durability =
      Option.map (fun _ -> durability_report ctx ~wh ~ip) durable;
    fused =
      (if cfg.merge_batch = Fused then
         Some (List.rev wh.fused_emitted, List.rev wh.fused_parts)
       else None) }

(* Every configuration corner a run cannot serve is refused here, before
   any engine, WAL or store exists — nothing is silently downgraded.

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
  end;
  (* The strawman has no messaging, recovery or durable layer, so it
     would run such a configuration as if the knob were off. *)
  if cfg.merge_kind = Sequential then begin
    let refuse what =
      invalid_arg ("System: the Sequential baseline cannot honour " ^ what)
    in
    if cfg.faults <> [] then refuse "faults";
    if not (Workload.Fault_plan.is_empty cfg.fault_plan) then
      refuse "a fault_plan";
    if cfg.reliability <> Off then refuse "reliability = Acked";
    if cfg.durable <> None then refuse "durable"
  end;
  (match cfg.reads with
  | Some rp when List.for_all (fun (_, n) -> n <= 0) rp.sessions ->
    invalid_arg "System: cfg.reads needs at least one session"
  | _ -> ());
  List.iter
    (function
      | Crash_vm { view; _ } ->
        List.iter
          (fun v ->
            if Query.View.name v = view then
              match kind_of cfg v with
              | Complete_vm | Selfmaint_vm | Batching_vm -> ()
              | _ ->
                invalid_arg
                  "System: Crash_vm faults support Complete_vm, Selfmaint_vm \
                   and Batching_vm managers (log-replay recovery)")
          cfg.scenario.Workload.Scenarios.views
      | _ -> ())
    cfg.faults

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
