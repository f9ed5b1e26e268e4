open Relational

type config = {
  workload : Workload.Tenants.t;
  shards : int;
  arrival : Whips.System.arrival;
  latencies : Whips.System.latencies;
  reliability : Whips.System.reliability;
  fault_plan : Workload.Fault_plan.t;
  durable : bool;
  selfmaint : bool;
  union_reads : int;
  read_sessions : int;
  seed : int;
}

let default ?(shards = 2) workload =
  { workload; shards; arrival = Whips.System.Uniform 0.05;
    latencies = Whips.System.default_latencies;
    reliability = Whips.System.Off; fault_plan = Workload.Fault_plan.empty;
    durable = false; selfmaint = false; union_reads = 8; read_sessions = 2;
    seed = 42 }

type shard_result = {
  sh_id : int;
  sh_views : string list;
  sh_store : Warehouse.Store.t;
  sh_merge_events : int;
  sh_wts : int;
  sh_commits : int;
  sh_wal_appends : int;
}

type result = {
  config : config;
  sources : Source.Sources.t;
  transactions : Update.Transaction.t list;
  shards : shard_result list;
  unions : Union_view.t list;
  reads : Consistency.Checker.cut_read list;
  metrics : Whips.Metrics.t;
  stuck : bool;
}

type 'a link = { send : 'a -> unit }

let run (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Dist.System: shards < 1";
  if cfg.read_sessions < 1 then invalid_arg "Dist.System: read_sessions < 1";
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let fault_rng = Sim.Rng.split rng in
  let link_rng = Sim.Rng.split rng in
  let arrival_rng = Sim.Rng.split rng in
  let latency_rng = Sim.Rng.split rng in
  let sample mean =
    if mean <= 0.0 then 0.0 else Sim.Rng.exponential latency_rng ~mean
  in
  let metrics = Whips.Metrics.create () in
  let scenario = cfg.workload.Workload.Tenants.scenario in
  let sources = Workload.Scenarios.sources scenario in
  let schemas = Source.Sources.schema_lookup sources in
  let views = scenario.Workload.Scenarios.views in
  let initial_db = Source.Sources.initial sources in
  let router =
    Router.create ~shards:cfg.shards
      ~tenant_of:(Workload.Tenants.tenant_of cfg.workload)
  in
  let integ = Integrator.create ~schemas views in
  (* Link plumbing: every warehouse-internal hop is a named simulator
     channel the fault plan can target, optionally wrapped in the ARQ
     layer. The sources->integ feed stays outside the plan's reach. *)
  let quiescence : (unit -> bool) list ref = ref [] in
  let link_stats : (unit -> Sim.Reliable.stats) list ref = ref [] in
  let drop_counts : (unit -> int) list ref = ref [] in
  let register ~faultable chan =
    if faultable && not (Workload.Fault_plan.is_empty cfg.fault_plan) then
      Workload.Fault_plan.attach cfg.fault_plan ~rng:fault_rng chan;
    drop_counts := (fun () -> Sim.Channel.dropped chan) :: !drop_counts
  in
  let make_link ?(faultable = true) ~name deliver =
    match cfg.reliability with
    | Whips.System.Off ->
      let ch =
        Sim.Channel.create engine ~name
          ~latency:(fun () -> sample cfg.latencies.Whips.System.message)
          deliver
      in
      register ~faultable ch;
      { send = (fun m -> Sim.Channel.send ch m) }
    | Whips.System.Acked params ->
      let rl =
        Sim.Reliable.create engine ~name ~params ~rng:(Sim.Rng.split link_rng)
          ~on_give_up:(fun () -> Atomic.incr metrics.Whips.Metrics.gave_up)
          ~latency:(fun () -> sample cfg.latencies.Whips.System.message)
          deliver
      in
      register ~faultable (Sim.Reliable.data_channel rl);
      register ~faultable (Sim.Reliable.ctrl_channel rl);
      quiescence := (fun () -> Sim.Reliable.quiescent rl) :: !quiescence;
      link_stats := (fun () -> Sim.Reliable.stats rl) :: !link_stats;
      { send = (fun m -> Sim.Reliable.send rl m) }
  in
  (* Shards, each with fault-injectable manager->merge links. *)
  let shards_arr =
    Array.init cfg.shards (fun s ->
        Shard.create ~engine ~id:s
          ~views:(Router.views_of_shard router views s)
          ~initial:initial_db
          ~compute_latency:(fun () -> sample cfg.latencies.Whips.System.compute)
          ~merge_latency:(fun () -> sample cfg.latencies.Whips.System.merge)
          ~commit_latency:(fun () -> sample cfg.latencies.Whips.System.commit)
          ~durable:cfg.durable
          ~vm_kind:
            (if cfg.selfmaint then Whips.System.Selfmaint_vm
             else Whips.System.Complete_vm)
          ~al_link:(fun ~view ~deliver ->
            (make_link ~name:(Printf.sprintf "%s->merge%d" view s) deliver)
              .send)
          ~on_merge_event:(fun ~held ~live ->
            Sim.Stats.Summary.add metrics.Whips.Metrics.merge_held
              (float_of_int held);
            Sim.Stats.Summary.add metrics.Whips.Metrics.merge_live_rows
              (float_of_int live))
          ())
  in
  let arrival_times : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let shard_links =
    Array.to_list
      (Array.init cfg.shards (fun s ->
           make_link ~name:(Printf.sprintf "integ->shard%d" s)
             (fun (txn, rel) -> Shard.receive shards_arr.(s) (txn, rel))))
  in
  let integrator_link =
    make_link ~faultable:false ~name:"sources->integ" (fun txn ->
        let stamped, rel = Integrator.ingest integ txn in
        Hashtbl.replace arrival_times stamped.Update.Transaction.id
          (Sim.Engine.now engine);
        let fanned = Router.fan_out router rel in
        if fanned <> [] then
          Sim.Stats.Summary.add metrics.Whips.Metrics.routed_shards
            (float_of_int (List.length fanned));
        List.iter
          (fun (s, rel_s) -> (List.nth shard_links s).send (stamped, rel_s))
          fanned)
  in
  (* Serving: a global cut over every shard's serving layer. *)
  let cut_mgr =
    Global_cut.create
      (Array.to_list
         (Array.mapi (fun s sh -> (s, Shard.versions sh)) shards_arr))
  in
  let unions =
    List.map
      (fun (name, legs) ->
        Union_view.make ~name ~assignment:(Router.assignment router) legs)
      cfg.workload.Workload.Tenants.unions
  in
  let reads_rev : Consistency.Checker.cut_read list ref = ref [] in
  let read_counter = ref 0 in
  let serve_union u =
    let session = !read_counter mod cfg.read_sessions in
    incr read_counter;
    let t0 = Sim.Engine.now engine in
    let cut = Global_cut.acquire cut_mgr ~shards:(Union_view.shards u) in
    let result = Union_view.stitch u ~state_of:(Global_cut.state_of cut) in
    reads_rev :=
      { Consistency.Checker.cr_session = session;
        cr_legs = u.Union_view.legs;
        cr_vector = Global_cut.vector cut;
        cr_result = result }
      :: !reads_rev;
    Atomic.incr metrics.Whips.Metrics.union_reads;
    Sim.Engine.schedule_after engine
      (sample cfg.latencies.Whips.System.read)
      (fun () ->
        Global_cut.release cut_mgr cut;
        Sim.Stats.Summary.add metrics.Whips.Metrics.union_read_latency
          (Sim.Engine.now engine -. t0))
  in
  (* Schedule the update script along the arrival process, tracking the
     horizon so mid-run reads can spread over it. *)
  let clock = ref 0.0 in
  let horizon = ref 0.0 in
  List.iter
    (fun updates ->
      let at =
        match cfg.arrival with
        | Whips.System.All_at_once -> 0.0
        | Whips.System.Uniform gap ->
          clock := !clock +. gap;
          !clock
        | Whips.System.Poisson rate ->
          clock := !clock +. Sim.Rng.exponential arrival_rng ~mean:(1.0 /. rate);
          !clock
      in
      horizon := Float.max !horizon at;
      Sim.Engine.schedule_at engine at (fun () ->
          let txn = Source.Sources.execute sources updates in
          Atomic.incr metrics.Whips.Metrics.transactions;
          integrator_link.send txn))
    scenario.Workload.Scenarios.script;
  if cfg.union_reads > 0 && unions <> [] then begin
    let n = cfg.union_reads in
    for i = 1 to n do
      let at = !horizon *. float_of_int i /. float_of_int (n + 1) in
      let u = List.nth unions ((i - 1) mod List.length unions) in
      Sim.Engine.schedule_at engine at (fun () -> serve_union u)
    done
  end;
  (* Drain: run, flush, re-run until every link is quiescent and every
     shard has no queued, pending, emitted or outstanding work. *)
  let drained () =
    List.for_all (fun q -> q ()) !quiescence
    && Array.for_all Shard.quiescent shards_arr
  in
  let rec drain guard =
    Sim.Engine.run engine;
    Array.iter Shard.flush shards_arr;
    Sim.Engine.run engine;
    if drained () then true else if guard = 0 then false else drain (guard - 1)
  in
  let ok = drain 1000 in
  (* Final reads: one per union view, against the drained warehouse —
     the deterministic record the smoke equivalence asserts on. *)
  List.iter serve_union unions;
  Sim.Engine.run engine;
  metrics.Whips.Metrics.completed_at <- Sim.Engine.now engine;
  (* Commit + staleness accounting from the recorded histories. *)
  Array.iter
    (fun sh ->
      let store = Shard.store sh in
      Whips.Metrics.add metrics.Whips.Metrics.commits
        (Warehouse.Store.commit_count store);
      List.iter
        (fun (c : Warehouse.Store.commit) ->
          Whips.Metrics.add metrics.Whips.Metrics.actions_applied
            (Warehouse.Wt.action_count c.Warehouse.Store.transaction);
          List.iter
            (fun row ->
              match Hashtbl.find_opt arrival_times row with
              | Some t0 ->
                Sim.Stats.Summary.add metrics.Whips.Metrics.staleness
                  (c.Warehouse.Store.time -. t0)
              | None -> ())
            c.Warehouse.Store.transaction.Warehouse.Wt.rows)
        (Warehouse.Store.commits store))
    shards_arr;
  List.iter
    (fun stats ->
      let s = stats () in
      Whips.Metrics.add metrics.Whips.Metrics.retransmits
        s.Sim.Reliable.retransmits;
      Whips.Metrics.add metrics.Whips.Metrics.acks s.Sim.Reliable.acks_sent;
      Whips.Metrics.add metrics.Whips.Metrics.nacks s.Sim.Reliable.nacks_sent;
      Whips.Metrics.add metrics.Whips.Metrics.dup_frames_dropped
        s.Sim.Reliable.dups_dropped)
    !link_stats;
  List.iter
    (fun dropped -> Whips.Metrics.add metrics.Whips.Metrics.msgs_dropped (dropped ()))
    !drop_counts;
  { config = cfg; sources; transactions = Source.Sources.transactions sources;
    shards =
      Array.to_list
        (Array.map
           (fun sh ->
             { sh_id = Shard.id sh; sh_views = Shard.view_names sh;
               sh_store = Shard.store sh;
               sh_merge_events = Shard.merge_events sh;
               sh_wts = Shard.wts_emitted sh;
               sh_commits = Warehouse.Store.commit_count (Shard.store sh);
               sh_wal_appends = Shard.wal_appends sh })
           shards_arr);
    unions; reads = List.rev !reads_rev; metrics; stuck = not ok }

let shard_verdicts r =
  let source_states = Source.Sources.states r.sources in
  let view_of =
    let all = r.config.workload.Workload.Tenants.scenario.Workload.Scenarios.views in
    fun name -> List.find (fun v -> Query.View.name v = name) all
  in
  List.filter_map
    (fun sh ->
      if sh.sh_views = [] then None
      else
        Some
          ( sh.sh_id,
            Consistency.Checker.check
              ~views:(List.map view_of sh.sh_views)
              ~transactions:r.transactions ~source_states
              ~warehouse_states:(Warehouse.Store.states sh.sh_store) ))
    r.shards

let certificate r =
  Consistency.Checker.certify_distributed
    ~shard_states:
      (List.map (fun sh -> Warehouse.Store.states sh.sh_store) r.shards)
    ~reads:r.reads

let union_contents r name =
  let u = List.find (fun u -> u.Union_view.name = name) r.unions in
  let snapshot_of s =
    Warehouse.Store.snapshot (List.nth r.shards s).sh_store
  in
  Union_view.stitch u ~state_of:snapshot_of

let merge_events_per_update r =
  let active = List.filter (fun sh -> sh.sh_views <> []) r.shards in
  let n_active = List.length active in
  let n_txns = List.length r.transactions in
  if n_active = 0 || n_txns = 0 then 0.0
  else
    float_of_int
      (List.fold_left (fun acc sh -> acc + sh.sh_merge_events) 0 active)
    /. float_of_int n_active /. float_of_int n_txns
