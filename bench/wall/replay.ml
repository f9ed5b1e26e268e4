(* The per-layer replay: a workload's generated inputs driven through
   each layer's public functions in-line, one update at a time, with
   every layer call wrapped in a span.

   It mirrors what [System.run] does for the pinned configurations —
   complete or self-maintaining managers under SPA, the configured
   [merge_batch] policy (run planning + planned installs for ready runs
   under [Coalesced], one [Store.apply] per WT under [Per_message], one
   batched WT under [Fused]), the durable layer's WAL appends and seals,
   and the serving layer's publish, cache commit and session reads — but
   with zero simulated latency: each update flows from [Sources.execute]
   to its commit before the next event, and reads interleave with
   updates in arrival-time order. What [System.run] spends beyond this
   (event engine, channels, ARQ, submitter queues, metric sampling) is
   the glue the benchmark reports as the difference of the two walls. *)

open Relational
open Whips

(* One view manager's three steps: restrict/project the transaction to
   the view's inputs, compute the view delta from the pre-state, and
   advance the local state. *)
type vm = {
  project : Update.Transaction.t -> Query.Delta.changes;
  delta : Query.Delta.changes -> Signed_bag.t;
  advance : Update.Transaction.t -> Query.Delta.changes -> unit;
}

let complete_vm ~initial view =
  let cache = ref (Database.restrict initial (Query.View.base_relations view)) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema !cache) view.Query.View.def
  in
  { project = Query.Delta.of_transaction;
    delta = (fun changes -> Query.Delta.eval_plan ~pre:!cache changes plan);
    advance = (fun txn _ -> cache := Database.apply_relevant !cache txn) }

let selfmaint_vm ~initial view =
  let plan = Selfmaint.Plan.create ~initial view in
  let cache = ref (Selfmaint.Plan.initial_cache plan) in
  { project =
      (fun txn -> Selfmaint.Plan.project plan (Query.Delta.of_transaction txn));
    delta = (fun changes -> Selfmaint.Plan.delta plan ~pre:!cache changes);
    advance = (fun _ changes -> cache := Selfmaint.Plan.advance plan !cache changes) }

type counters = {
  mutable rel_views : int;  (** Summed |REL_i|. *)
  mutable delta_rows : int;  (** Summed view-delta sizes. *)
  mutable commits : int;
}

type result = {
  store : Warehouse.Store.t;
  updates : int;
  wall_ns : int;  (** The event loop, set-up excluded. *)
  update_ns : float array;
      (** Per update: [Sources.execute] to the return of the last commit
          (and publish) covering its row. *)
  read_ns : float array;
  read_hit : bool array;
  counters : counters;
  kernel_rows : int;  (** {!Query.Compiled.kernel_rows} during the loop. *)
  wal_bytes : int;
  wal_syncs : int;
  cache_stats : Serve.Result_cache.stats option;
  spans : Span.t;
}

(* Arrival instants of a process, drawn the way [System] draws them but
   from the replay's own stream: only the interleaving of updates and
   reads matters here, not the exact instants. *)
let arrivals rng arrival count =
  let clock = ref 0.0 in
  Array.init count (fun _ ->
      match arrival with
      | System.All_at_once -> 0.0
      | System.Uniform gap ->
        clock := !clock +. gap;
        !clock
      | System.Poisson rate ->
        clock := !clock +. Sim.Rng.exponential rng ~mean:(1.0 /. rate);
        !clock)

type read = { at : float; session : int; query : Query.Algebra.t; as_of : float option }

let read_schedule rng (rp : System.read_profile) views =
  let population =
    Array.of_list
      (List.concat_map (fun (g, n) -> List.init n (fun _ -> g)) rp.System.sessions)
  in
  let queries =
    Array.of_list
      (match rp.System.queries with
      | [] -> List.map (fun v -> Query.Algebra.base (Query.View.name v)) views
      | qs -> qs)
  in
  let times = arrivals (Sim.Rng.split rng) rp.System.read_arrival rp.System.n_reads in
  let pick = Sim.Rng.split rng in
  ( population,
    Array.map
      (fun at ->
        let session = Sim.Rng.int pick (Array.length population) in
        let query = queries.(Sim.Rng.int pick (Array.length queries)) in
        let as_of =
          if rp.System.as_of_fraction > 0.0
             && Sim.Rng.float pick 1.0 < rp.System.as_of_fraction
          then Some (Float.max 0.0 (at -. Sim.Rng.float pick rp.System.as_of_lag))
          else None
        in
        { at; session; query; as_of })
      times )

let supported (cfg : System.config) =
  let kinds = cfg.System.vm_kind :: List.map snd cfg.System.vm_overrides in
  if not (List.for_all (function System.Complete_vm | System.Selfmaint_vm -> true | _ -> false) kinds)
  then Error "replay supports Complete_vm and Selfmaint_vm managers only"
  else if not (List.mem cfg.System.merge_kind [ System.Auto; System.Force_spa ]) then
    Error "replay supports the SPA merge only"
  else if cfg.System.faults <> [] then Error "replay does not model structured faults"
  else Ok ()

let run ~traced (cfg : System.config) =
  (match supported cfg with Ok () -> () | Error msg -> invalid_arg ("Replay: " ^ msg));
  let sp = Span.create ~enabled:traced () in
  let s name = Span.id sp name in
  let s_execute = s "source.execute" and s_ingest = s "integrator.ingest"
  and s_project = s "vm.project" and s_delta = s "vm.delta"
  and s_advance = s "vm.advance" and s_rel = s "merge.receive_rel"
  and s_al = s "merge.receive_action_list" and s_plan = s "store.plan_run"
  and s_install = s "store.install" and s_wal = s "wal.append"
  and s_integ_wal = s "wal.integ_append" and s_seal = s "wal.seal"
  and s_publish = s "serve.publish" and s_cache = s "cache.commit"
  and s_read = s "serve.read" in
  let scenario = cfg.System.scenario in
  let sources = Workload.Scenarios.sources scenario in
  let schemas = Source.Sources.schema_lookup sources in
  let views =
    if cfg.System.optimize_views then
      List.map
        (fun v ->
          Query.View.make (Query.View.name v)
            (Query.Optimize.optimize ~schemas v.Query.View.def))
        scenario.Workload.Scenarios.views
    else scenario.Workload.Scenarios.views
  in
  let initial = Source.Sources.initial sources in
  let store =
    Warehouse.Store.create ~retention:cfg.System.store_retention
      (List.map (fun v -> (Query.View.name v, Query.View.materialize initial v)) views)
  in
  let durable = cfg.System.durable in
  let integ =
    Integrator.create ~semantic_filter:cfg.System.semantic_filter
      ~retain_log:(durable <> None) ~schemas views
  in
  (* REL_i lists views in definition order, which is the order System's
     integrator routes U_i to their managers. *)
  let vms = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let name = Query.View.name v in
      let kind =
        Option.value ~default:cfg.System.vm_kind (List.assoc_opt name cfg.System.vm_overrides)
      in
      Hashtbl.replace vms name
        (match kind with
        | System.Selfmaint_vm -> selfmaint_vm ~initial v
        | _ -> complete_vm ~initial v))
    views;
  let emitted = Queue.create () in
  let merge =
    Mvc.Merge.create Mvc.Merge.Spa ~views:(List.map Query.View.name views)
      ~emit:(fun wt -> Queue.push wt emitted)
  in
  let wh_wal : (unit, float * Warehouse.Wt.t) Durable.Wal.t =
    Durable.Wal.create ~group_commit:1 ()
  in
  let integ_wal : (unit, Update.Transaction.t * string list) Durable.Wal.t =
    Durable.Wal.create
      ~group_commit:
        (match durable with Some d -> d.System.group_commit | None -> 1)
      ()
  in
  let serving =
    Option.map
      (fun (rp : System.read_profile) ->
        let vm =
          Serve.Version_manager.create ~retention:rp.System.serve_retention
            (Warehouse.Store.snapshot store)
        in
        let cache =
          if rp.System.read_cache then Some (Serve.Result_cache.create ()) else None
        in
        let population, reads = read_schedule (Sim.Rng.create cfg.System.seed) rp views in
        let sessions =
          Array.map (fun g -> Serve.Session.create ?cache ~guarantee:g vm) population
        in
        (rp, vm, cache, sessions, reads))
      cfg.System.reads
  in
  let reads = match serving with Some (_, _, _, _, r) -> r | None -> [||] in
  let script = Array.of_list scenario.Workload.Scenarios.script in
  let n = Array.length script in
  let update_at = arrivals (Sim.Rng.create cfg.System.seed) cfg.System.arrival n in
  let c = { rel_views = 0; delta_rows = 0; commits = 0 } in
  let last_state = ref (Warehouse.Store.snapshot store) in
  let pre_commit ~time wt =
    if durable <> None then
      Span.with_ sp s_wal (fun () -> Durable.Wal.append wh_wal (time, wt))
  in
  let on_commit ~time wt =
    c.commits <- c.commits + 1;
    (match serving with
    | None -> ()
    | Some (rp, vm, cache, _, _) ->
      let changed = Warehouse.Wt.views wt in
      let post = Warehouse.Store.snapshot store in
      let v =
        Span.with_ sp s_publish (fun () ->
            Serve.Version_manager.publish vm ~time ~changed post)
      in
      let version = v.Serve.Version_manager.index in
      (match cache with
      | Some rc ->
        Span.with_ sp s_cache (fun () ->
            if rp.System.cache_refresh then
              Serve.Result_cache.commit rc ~version ~changed ~pre:!last_state ~post
            else
              List.iter (fun view -> Serve.Result_cache.note_change rc ~view ~version) changed)
      | None -> ());
      last_state := post);
    match durable with
    | Some d when Warehouse.Store.commit_count store mod d.System.checkpoint_every = 0 ->
      Span.with_ sp s_seal (fun () -> Durable.Wal.seal wh_wal)
    | _ -> ()
  in
  let apply_one ~time wt =
    pre_commit ~time wt;
    Span.with_ sp s_install (fun () -> Warehouse.Store.apply store ~time wt);
    on_commit ~time wt
  in
  (* A ready run planned once and installed entry by entry, as the
     submitter does for a run handed over with [submit_run]. *)
  let install_run ~time ~log wts =
    let p = Span.with_ sp s_plan (fun () -> Warehouse.Store.plan_run store wts) in
    List.iter
      (fun (wt, state) ->
        if log then pre_commit ~time wt;
        Span.with_ sp s_install (fun () -> Warehouse.Store.apply_planned store ~time wt state);
        on_commit ~time wt)
      p.Warehouse.Store.planned
  in
  let commit_ready ~time =
    if not (Queue.is_empty emitted) then begin
      let wts = List.of_seq (Queue.to_seq emitted) in
      Queue.clear emitted;
      match (cfg.System.merge_batch, cfg.System.submit) with
      | System.Coalesced, Warehouse.Submitter.Serial -> install_run ~time ~log:true wts
      | System.Fused, Warehouse.Submitter.Serial ->
        if durable <> None then
          Span.with_ sp s_wal (fun () ->
              Durable.Wal.append_group wh_wal (List.map (fun wt -> (time, wt)) wts));
        install_run ~time ~log:false [ Warehouse.Wt.batch wts ]
      | _ -> List.iter (apply_one ~time) wts
    end
  in
  let update_ns = Array.make n 0.0 in
  let read_ns = Array.make (Array.length reads) 0.0 in
  let read_hit = Array.make (Array.length reads) false in
  let do_update i =
    Span.set_request sp i;
    let time = update_at.(i) in
    let t0 = Span.now () in
    let txn = Span.with_ sp s_execute (fun () -> Source.Sources.execute sources script.(i)) in
    let stamped, rel = Span.with_ sp s_ingest (fun () -> Integrator.ingest integ txn) in
    (match durable with
    | Some d ->
      Span.with_ sp s_integ_wal (fun () -> Durable.Wal.append integ_wal (stamped, rel));
      if Integrator.ingested integ mod d.System.integ_checkpoint_every = 0 then
        Span.with_ sp s_seal (fun () -> Durable.Wal.seal integ_wal)
    | None -> ());
    c.rel_views <- c.rel_views + List.length rel;
    let row = stamped.Update.Transaction.id in
    if rel <> [] then begin
      Span.with_ sp s_rel (fun () ->
          Mvc.Merge.receive_rel merge ~row ~rel;
          commit_ready ~time)
    end;
    List.iter
      (fun view ->
        let vm = Hashtbl.find vms view in
        let changes = Span.with_ sp s_project (fun () -> vm.project stamped) in
        let delta = Span.with_ sp s_delta (fun () -> vm.delta changes) in
        Span.with_ sp s_advance (fun () -> vm.advance stamped changes);
        c.delta_rows <- c.delta_rows + Signed_bag.size delta;
        let al = Query.Action_list.delta ~view ~state:row delta in
        Span.with_ sp s_al (fun () ->
            Mvc.Merge.receive_action_list merge al;
            commit_ready ~time))
      rel;
    update_ns.(i) <- float_of_int (Span.now () - t0)
  in
  let do_read j =
    match serving with
    | None -> ()
    | Some (_, _, _, sessions, _) ->
      let r = reads.(j) in
      let t0 = Span.now () in
      let o =
        Span.with_ sp s_read (fun () ->
            Serve.Session.read sessions.(r.session) ~now:r.at ?as_of:r.as_of r.query)
      in
      read_ns.(j) <- float_of_int (Span.now () - t0);
      read_hit.(j) <- o.Serve.Session.cache_hit
  in
  let kernel0 = Query.Compiled.kernel_rows () in
  let t_start = Span.now () in
  (* Merge the two arrival streams; an update due at the same instant as
     a read goes first. *)
  let i = ref 0 and j = ref 0 in
  while !i < n || !j < Array.length reads do
    if !j >= Array.length reads || (!i < n && update_at.(!i) <= reads.(!j).at) then begin
      do_update !i;
      incr i
    end
    else begin
      do_read !j;
      incr j
    end
  done;
  let wall_ns = Span.now () - t_start in
  let kernel_rows = Query.Compiled.kernel_rows () - kernel0 in
  let a = Durable.Wal.stats wh_wal and b = Durable.Wal.stats integ_wal in
  { store; updates = n; wall_ns; update_ns; read_ns; read_hit; counters = c;
    kernel_rows;
    wal_bytes = a.Durable.Disk.synced_bytes + b.Durable.Disk.synced_bytes;
    wal_syncs = a.Durable.Disk.syncs + b.Durable.Disk.syncs;
    cache_stats =
      (match serving with
      | Some (_, _, Some rc, _, _) -> Some (Serve.Result_cache.stats rc)
      | _ -> None);
    spans = sp }
