open Whips

type t = {
  sh_id : int;
  views : Query.View.t list;
  merge : Merge_proc.t;
  wh : Warehouse_proc.t;
  versions : Serve.Version_manager.t;
  managers : (string * (Vm_host.t * Viewmgr.Vm.t)) list;
}

let create (env : Vm_host.env) ~links ~id ~views ~durable ~vm_kind =
  let ctx = env.ctx and latencies = env.latencies in
  let store =
    Warehouse.Store.create
      (List.map
         (fun v -> (Query.View.name v, Query.View.materialize env.initial v))
         views)
  in
  let versions =
    Serve.Version_manager.create (Warehouse.Store.snapshot store)
  in
  let wh =
    Warehouse_proc.create ctx ~policy:Warehouse.Submitter.Serial
      ~commit_latency:latencies.commit ~store
      ~durable:(if durable then Some Config.default_durability else None)
      ~fused:false ~track:false ~crash:(Proc.trigger Config.Off None)
      ~on_commit:(fun wt ->
        ignore
          (Serve.Version_manager.publish versions ~time:(Proc.now ctx)
             ~changed:(Warehouse.Wt.views wt)
             (Warehouse.Store.snapshot store)))
  in
  let merge =
    Merge_proc.create ctx ~algorithm:Mvc.Merge.Spa ~groups:[ views ]
      ~batch:false ~latency:latencies.merge ~dedup:false
      ~crash:(Proc.trigger Config.Off None) ~wh
  in
  let managers =
    List.map
      (fun view ->
        let name = Query.View.name view in
        let al =
          Link.make links ~name:(Printf.sprintf "%s->merge%d" name id)
            (Merge_proc.receive_vm merge ~view:name ~reply:ignore)
        in
        let host =
          Vm_host.create env ~kind:vm_kind ~view
            ~crash:(Proc.trigger Config.Off None) ~shared:None ~al
        in
        (name, (host, Vm_host.vm host)))
      views
  in
  { sh_id = id; views; merge; wh; versions; managers }

let id t = t.sh_id

let view_names t = List.map Query.View.name t.views

let store t = t.wh.Warehouse_proc.store

let versions t = t.versions

let receive t ((txn : Relational.Update.Transaction.t), rel) =
  (* The REL subset enters the merge server first: managers only start
     computing afterwards, so the merge always knows a row's paint set
     before any of its action lists arrive. *)
  Merge_proc.deliver_rel t.merge 0 txn.Relational.Update.Transaction.id rel;
  List.iter
    (fun name ->
      match List.assoc_opt name t.managers with
      | Some (host, _) -> Vm_host.receive host txn
      | None -> ())
    rel

let flush t =
  List.iter (fun (_, (_, vm)) -> vm.Viewmgr.Vm.flush ()) t.managers;
  Merge_proc.flush t.merge 0

let quiescent t =
  Merge_proc.quiescent t.merge
  && List.for_all (fun (_, (_, vm)) -> vm.Viewmgr.Vm.pending () = 0) t.managers
  && Warehouse_proc.outstanding t.wh = 0

let merge_events t = t.merge.Merge_proc.jobs

let wts_emitted t = Mvc.Merge.wts_emitted t.merge.Merge_proc.merges.(0)

let wal_appends t =
  (Durable.Wal.stats t.wh.Warehouse_proc.wal).Durable.Disk.appends
