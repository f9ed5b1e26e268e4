open Relational

type t = {
  sh_id : int;
  views : Query.View.t list;
  merge : Mvc.Merge.t;
  store : Warehouse.Store.t;
  versions : Serve.Version_manager.t;
  managers : (string * Viewmgr.Vm.t) list;
  enqueue : (unit -> unit) -> unit;
  server_pending : unit -> int;
  submitter : Warehouse.Submitter.t;
  emitted : Warehouse.Wt.t Queue.t;
  events : int ref;
  wal_records : int ref;
}

(* Single-server FIFO queue on the simulation engine: one message in
   service at a time, each costing a sampled latency — the shard merge
   is a sequential process exactly like the whips merge server. *)
let make_server engine ~latency =
  let q = Queue.create () in
  let busy = ref false in
  let rec pump () =
    if not !busy then
      match Queue.take_opt q with
      | None -> ()
      | Some job ->
        busy := true;
        Sim.Engine.schedule_after engine (latency ()) (fun () ->
            job ();
            busy := false;
            pump ())
  in
  let enqueue job =
    Queue.add job q;
    pump ()
  in
  let pending () = Queue.length q + if !busy then 1 else 0 in
  (enqueue, pending)

let create ~engine ~id ~views ~initial ~compute_latency ~merge_latency
    ~commit_latency ~durable ~vm_kind ~al_link
    ?(on_merge_event = fun ~held:_ ~live:_ -> ())
    ?(on_commit = fun _ -> ()) () =
  let names = List.map Query.View.name views in
  let store =
    Warehouse.Store.create
      (List.map (fun v -> (Query.View.name v, Query.View.materialize initial v)) views)
  in
  let versions = Serve.Version_manager.create (Warehouse.Store.snapshot store) in
  let emitted = Queue.create () in
  let merge =
    Mvc.Merge.create Mvc.Merge.Spa ~views:names
      ~emit:(fun wt -> Queue.push wt emitted)
  in
  let wal : (unit, float * Warehouse.Wt.t) Durable.Wal.t option =
    if durable then Some (Durable.Wal.create ~group_commit:1 ()) else None
  in
  let wal_records = ref 0 in
  let submitter =
    Warehouse.Submitter.create engine ~policy:Warehouse.Submitter.Serial
      ~commit_latency ~store
      ~pre_commit:(fun ~time wt ->
        match wal with
        | None -> ()
        | Some w ->
          (* Write-ahead: the WT is durable before the store applies it. *)
          Durable.Wal.append w (time, wt);
          Durable.Wal.sync w;
          incr wal_records)
      ~on_commit:(fun wt ->
        ignore
          (Serve.Version_manager.publish versions
             ~time:(Sim.Engine.now engine)
             ~changed:(Warehouse.Wt.views wt)
             (Warehouse.Store.snapshot store));
        on_commit wt)
      ()
  in
  let drain_emitted () =
    while not (Queue.is_empty emitted) do
      Warehouse.Submitter.submit submitter (Queue.pop emitted)
    done
  in
  let enqueue, server_pending = make_server engine ~latency:merge_latency in
  let events = ref 0 in
  let merge_job body =
    enqueue (fun () ->
        incr events;
        body ();
        drain_emitted ();
        on_merge_event
          ~held:(Mvc.Merge.held_action_lists merge)
          ~live:(Mvc.Merge.live_rows merge))
  in
  let receive_al al = merge_job (fun () -> Mvc.Merge.receive_action_list merge al) in
  let managers =
    List.map
      (fun view ->
        let name = Query.View.name view in
        let send =
          al_link ~view:name ~deliver:receive_al
        in
        let make_plan, drain = Whips.System.plan_shape vm_kind in
        let vm =
          Viewmgr.Plan_vm.create ~engine
            ~compute_latency:(fun ~batch:_ -> compute_latency ())
            ~drain ~plan:(make_plan ~initial view) ~emit:send ()
        in
        (name, vm))
      views
  in
  { sh_id = id; views; merge; store; versions; managers; enqueue;
    server_pending; submitter; emitted; events; wal_records }

let id t = t.sh_id

let view_names t = List.map Query.View.name t.views

let store t = t.store

let versions t = t.versions

let receive t ((txn : Update.Transaction.t), rel) =
  (* The REL subset enters the merge server first: managers only start
     computing afterwards, so the merge always knows a row's paint set
     before any of its action lists arrive. *)
  t.enqueue (fun () ->
      incr t.events;
      Mvc.Merge.receive_rel t.merge ~row:txn.Update.Transaction.id ~rel);
  List.iter
    (fun name ->
      match List.assoc_opt name t.managers with
      | Some vm -> vm.Viewmgr.Vm.receive txn
      | None -> ())
    rel

let flush t =
  List.iter (fun (_, vm) -> vm.Viewmgr.Vm.flush ()) t.managers;
  Mvc.Merge.flush t.merge;
  while not (Queue.is_empty t.emitted) do
    Warehouse.Submitter.submit t.submitter (Queue.pop t.emitted)
  done

let quiescent t =
  t.server_pending () = 0
  && List.for_all (fun (_, vm) -> vm.Viewmgr.Vm.pending () = 0) t.managers
  && Queue.is_empty t.emitted
  && Warehouse.Submitter.outstanding t.submitter = 0
  && Mvc.Merge.quiescent t.merge

let merge_events t = !(t.events)

let wts_emitted t = Mvc.Merge.wts_emitted t.merge

let wal_appends t = !(t.wal_records)
