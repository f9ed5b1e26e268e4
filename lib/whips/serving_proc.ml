(* The snapshot-serving subsystem (lib/serve) wired to a run.

   One version manager over the store, one optional shared result cache,
   and a population of reader sessions, each with its own serial service
   queue (a session is one client connection: its reads are handled one
   at a time, each costing a sampled read latency). The version is
   selected and *pinned* when service starts and released when the read
   completes, so the retention pruning that a concurrent commit triggers
   can never drop the snapshot an in-flight read is using. *)
open Config

type session = {
  submit : float * float option * Query.Algebra.t -> unit;
  waiting : unit -> int;
  pump : unit -> unit;
}

type t = {
  vm : Serve.Version_manager.t;
  cache : Serve.Result_cache.t option;
  profile : read_profile;
  records : read_record list ref;
  servers : session array;
  frozen : bool ref;
  (* Warehouse state at the previously published version: the [pre]
     side of the commit's per-view deltas when the cache refreshes
     entries in place instead of invalidating them. *)
  mutable last_state : Relational.Database.t;
}

(* A read's outcome as metrics, a timeline line and a record. *)
let served (ctx : Proc.ctx) ~cache ~records ~sid ~g ~arrived ~as_of ~query
    ~version (o : Serve.Session.outcome) =
  let now = Proc.now ctx and m = ctx.metrics in
  Atomic.incr m.Metrics.reads;
  Sim.Stats.Summary.add m.Metrics.read_latency (now -. arrived);
  Sim.Stats.Summary.add m.Metrics.served_staleness o.Serve.Session.staleness;
  if cache <> None then
    Atomic.incr
      (if o.Serve.Session.cache_hit then m.Metrics.cache_hits
       else m.Metrics.cache_misses);
  if o.Serve.Session.clamped then Atomic.incr m.Metrics.reads_clamped;
  ctx.record "%s"
    (Printf.sprintf "session %d (%s) served from version %d%s%s" sid
       (Serve.Session.guarantee_name g) o.Serve.Session.version
       (if o.Serve.Session.cache_hit then " [cache]" else "")
       (if o.Serve.Session.clamped then " [clamped]" else ""));
  records :=
    { read_session = sid; read_guarantee = g; read_query = query;
      read_as_of = as_of; read_arrived = arrived; read_served = now;
      read_version = o.Serve.Session.version;
      read_version_time = o.Serve.Session.version_time;
      read_staleness = o.Serve.Session.staleness;
      read_cache_hit = o.Serve.Session.cache_hit;
      read_clamped = o.Serve.Session.clamped;
      read_state = version.Serve.Version_manager.state;
      read_result = o.Serve.Session.result }
    :: !records

let session (ctx : Proc.ctx) ~latencies ~vm ~cache ~records ~frozen sid g =
  let session = Serve.Session.create ?cache ~guarantee:g vm in
  let queue = Queue.create () in
  let busy = ref false in
  let rec pump () =
    if (not !frozen) && (not !busy) && not (Queue.is_empty queue) then begin
      busy := true;
      let arrived, as_of, query = Queue.pop queue in
      let pending = Serve.Session.start session ~now:(Proc.now ctx) ?as_of () in
      let version = Serve.Session.pending_version pending in
      (* A cache hit skips the evaluation kernel, so it gets the cheap
         service-time distribution. The probe pins neither statistics nor
         the entry: the authoritative lookup (and hit/miss accounting)
         happens at completion, against the version pinned here, so the
         probe's answer cannot rot. Either branch draws exactly one
         latency sample, keeping the RNG stream aligned across
         configurations. *)
      let will_hit =
        match cache with
        | Some c ->
          Serve.Result_cache.peek c ~version:version.Serve.Version_manager.index
            query
        | None -> false
      in
      let service_mean =
        if will_hit then latencies.read_hit else latencies.read
      in
      Sim.Engine.schedule_after ctx.engine (ctx.sample service_mean) (fun () ->
          let o =
            Serve.Session.complete session pending ~now:(Proc.now ctx) query
          in
          served ctx ~cache ~records ~sid ~g ~arrived ~as_of ~query ~version o;
          busy := false;
          pump ())
    end
  in
  let submit job =
    Queue.push job queue;
    pump ()
  in
  { submit; waiting = (fun () -> Queue.length queue + if !busy then 1 else 0);
    pump }

(* Read arrival process, independent of the update schedule. *)
let schedule_reads (ctx : Proc.ctx) ~rng ~queries ~servers rp =
  let arrival_rng = Sim.Rng.split rng in
  let pick_rng = Sim.Rng.split rng in
  let clock = ref 0.0 in
  for _ = 1 to rp.n_reads do
    let at = Proc.next_arrival arrival_rng rp.read_arrival clock in
    Sim.Engine.schedule_at ctx.engine at (fun () ->
        let sid = Sim.Rng.int pick_rng (Array.length servers) in
        let query = queries.(Sim.Rng.int pick_rng (Array.length queries)) in
        let as_of =
          if
            rp.as_of_fraction > 0.0
            && Sim.Rng.float pick_rng 1.0 < rp.as_of_fraction
          then Some (Float.max 0.0 (at -. Sim.Rng.float pick_rng rp.as_of_lag))
          else None
        in
        servers.(sid).submit (at, as_of, query))
  done

let create (ctx : Proc.ctx) ~rng ~latencies ~store ~views rp =
  let population =
    List.concat_map (fun (g, n) -> List.init n (fun _ -> g)) rp.sessions
  in
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
      | [] -> List.map (fun v -> Query.Algebra.base (Query.View.name v)) views
      | qs -> qs)
  in
  let records = ref [] and frozen = ref false in
  let servers =
    Array.of_list
      (List.mapi
         (session ctx ~latencies ~vm ~cache ~records ~frozen)
         population)
  in
  schedule_reads ctx ~rng ~queries ~servers rp;
  { vm; cache; profile = rp; records; servers; frozen;
    last_state = Warehouse.Store.snapshot store }

(* Publish [post] as the next version and carry the cache across it. *)
let publish_state t ~time ~changed post =
  let v = Serve.Version_manager.publish t.vm ~time ~changed post in
  let version = v.Serve.Version_manager.index in
  (match t.cache with
  | Some c when t.profile.cache_refresh ->
    Serve.Result_cache.commit c ~version ~changed ~pre:t.last_state ~post
  | Some c ->
    List.iter
      (fun view -> Serve.Result_cache.note_change c ~view ~version)
      changed
  | None -> ());
  t.last_state <- post

(* Call after each store commit; [changed] is the commit's [Wt.views]. *)
let publish (ctx : Proc.ctx) t store ~changed =
  publish_state t ~time:(Proc.now ctx) ~changed (Warehouse.Store.snapshot store);
  Sim.Stats.Summary.add ctx.metrics.Metrics.versions_retained
    (float_of_int (Serve.Version_manager.retained t.vm));
  Sim.Stats.Summary.add ctx.metrics.Metrics.versions_pinned
    (float_of_int (Serve.Version_manager.pinned t.vm))

let pending t = Array.fold_left (fun acc s -> acc + s.waiting ()) 0 t.servers

(* Warehouse down: stop starting new reads (queued reads wait; reads
   already in service complete against their pinned versions). *)
let freeze t f =
  t.frozen := f;
  if not f then Array.iter (fun s -> s.pump ()) t.servers

(* Warehouse crash recovery: restart the version history at 0 and
   republish the restored commits at their recorded times — each version
   lands back at its original index, so leases held by in-flight reads
   and the floors of monotonic sessions stay valid. The result cache is
   wiped outright (entries and change history describe the version
   sequence being rebuilt). *)
let recover t store =
  Serve.Version_manager.restart t.vm ~initial:(Warehouse.Store.initial store);
  Option.iter Serve.Result_cache.clear t.cache;
  t.last_state <- Warehouse.Store.initial store;
  List.iter
    (fun (c : Warehouse.Store.commit) ->
      publish_state t ~time:c.Warehouse.Store.time
        ~changed:(Warehouse.Wt.views c.transaction) c.Warehouse.Store.state)
    (Warehouse.Store.commits store)

let result t =
  { version_manager = t.vm; result_cache = t.cache;
    reads_served = List.rev !(t.records) }

(* The result cache's refresh-vs-invalidate decision counts and retained
   snapshots, folded into the metrics at drain time. *)
let fold_stats t (metrics : Metrics.t) =
  Option.iter
    (fun c ->
      let s = Serve.Result_cache.stats c in
      Metrics.add metrics.Metrics.cache_refreshes
        s.Serve.Result_cache.refreshed;
      Metrics.add metrics.Metrics.cache_refresh_fallbacks
        s.Serve.Result_cache.refresh_fallbacks;
      Metrics.add metrics.Metrics.cache_deltas_carried
        s.Serve.Result_cache.deltas_carried;
      Metrics.add metrics.Metrics.cache_deltas_diffed
        s.Serve.Result_cache.deltas_diffed;
      Metrics.add metrics.Metrics.cache_snapshots
        s.Serve.Result_cache.snapshots)
    t.cache
