(* The integrator process of Figure 1: numbers each source transaction,
   computes REL_i, logs both write-ahead, and routes REL_i to the merge
   groups and U_i to the relevant view managers; plus its crash and its
   restore from the WAL and a source catch-up query. *)
open Relational
open Config

type t = {
  ctx : Proc.ctx;
  integ : Integrator.t;
  (* Every stamped transaction with its REL set, under group commit;
     appends are gated on [durable]. *)
  wal : (unit, Update.Transaction.t * string list) Durable.Wal.t;
  durable : durability option;
  routing : rel_routing;
  rel_links : (int * string list) Link.t array;  (* one per merge group *)
  vm_links : Update.Transaction.t Link.t array;  (* in manager order *)
  hosts : Vm_host.t array;
  vms : Viewmgr.Vm.t array;
  position : (string, int) Hashtbl.t;
  tick_hungry : int list;
  group_of : string -> int;
  shard_of : (string -> int) option;  (* a sharded run's view placement *)
  last_routed : int array;  (* per group, the last row routed via a manager *)
  trigger : Proc.trigger;
  mutable down : bool;
  mutable feed : Link.port;  (* the sources -> integrator link *)
}

let create (ctx : Proc.ctx) ~integ ~durable ~routing ~rel_links ~hosts ~vm_links
    ~group_of ~shard_of ~crash =
  let vms = Array.map Vm_host.vm hosts in
  let position = Hashtbl.create 16 in
  Array.iteri (fun i vm -> Hashtbl.replace position (Viewmgr.Vm.name vm) i) vms;
  let dur = Option.value ~default:default_durability durable in
  { ctx; integ; wal = Durable.Wal.create ~group_commit:dur.group_commit ();
    durable; routing; rel_links; vm_links; hosts; vms; position;
    tick_hungry =
      List.filter (fun i -> vms.(i).Viewmgr.Vm.needs_ticks)
        (List.init (Array.length vms) Fun.id);
    group_of; shard_of; last_routed = Array.make (Array.length rel_links) 0;
    trigger = crash; down = false; feed = Link.no_port }

(* REL_i to the merge(s) owning affected views, split by group
   (ascending group id, REL order within a group): either directly
   (Figure 1) or carried by a relevant view manager (the Section 3.2
   alternative, which saves messages but lets RELs trail other managers'
   action lists). *)
let route_rels t (stamped : Update.Transaction.t) rel =
  let id = stamped.Update.Transaction.id in
  List.iter
    (fun (gi, rel_group) ->
      match t.routing with
      | Direct -> t.rel_links.(gi).send (id, rel_group)
      | Via_manager ->
        let carrier = Hashtbl.find t.position (List.hd rel_group) in
        Vm_host.owe t.hosts.(carrier) (id, rel_group, t.last_routed.(gi));
        t.last_routed.(gi) <- id)
    (Integrator.route_shards ~assignment:t.group_of rel)

(* U_i to the relevant view managers (and tick-hungry ones), in manager
   order: REL_i's managers are found by name, so routing costs
   O(|REL_i|), not a pass over every manager. *)
let route_updates t stamped rel =
  List.iter
    (fun i -> t.vm_links.(i).send stamped)
    (List.sort_uniq Int.compare
       (List.rev_append (List.filter_map (Hashtbl.find_opt t.position) rel)
          t.tick_hungry))

let ingest t txn =
  let stamped, rel = Integrator.ingest t.integ txn in
  assert (stamped.Update.Transaction.id = txn.Update.Transaction.id);
  Option.iter
    (fun dur ->
      Durable.Wal.append t.wal (stamped, rel);
      if Integrator.ingested t.integ mod dur.integ_checkpoint_every = 0 then
        Durable.Wal.seal t.wal)
    t.durable;
  t.ctx.record "integrator: U%d (%a) REL = {%a}" stamped.Update.Transaction.id
    Update.Transaction.pp stamped Proc.names rel;
  route_rels t stamped rel;
  route_updates t stamped rel;
  (* How many shards the update wakes. *)
  (match (t.shard_of, rel) with
  | Some shard_of, _ :: _ ->
    Sim.Stats.Summary.add t.ctx.metrics.Metrics.routed_shards
      (float_of_int
         (List.length (List.sort_uniq Int.compare (List.map shard_of rel))))
  | _ -> ());
  let pending =
    Array.fold_left (fun acc vm -> acc + vm.Viewmgr.Vm.pending ()) 0 t.vms
  in
  Sim.Stats.Summary.add t.ctx.metrics.Metrics.vm_queue (float_of_int pending)

(* Delivery end of the sources -> integrator link. *)
let receive t (txn : Update.Transaction.t) =
  let id = txn.Update.Transaction.id in
  if t.down then t.ctx.record "integrator down: U%d ignored in flight" id
  else if t.durable <> None && id < Integrator.next_id t.integ then
    (* Post-restart ARQ retransmit of a transaction the recovery re-fetch
       already pulled from the sources. *)
    t.ctx.record "integrator dropped duplicate U%d" id
  else begin
    Proc.note t.trigger;
    if t.down then
      t.ctx.record "integrator crashed receiving U%d (re-fetched on restart)"
        id
    else ingest t txn
  end

(* Void every frame the dead incarnation left unacked, then re-route the
   unsubmitted suffix of the restored log: receivers dedup (rel_seen per
   merge group, id watermark per manager), so over-sending is safe while
   under-sending would lose updates. *)
let resend t ~submitted =
  let bump l = ignore (Link.bump_epoch l ~otherwise:0) in
  Array.iter bump t.vm_links;
  Array.iter bump t.rel_links;
  List.iter
    (fun ((stamped : Update.Transaction.t), rel) ->
      let id = stamped.Update.Transaction.id in
      if not (submitted id) then begin
        t.ctx.record "integrator re-sends U%d after restart" id;
        route_rels t stamped rel;
        route_updates t stamped rel
      end)
    (Integrator.retained_log t.integ)

(* Catch up on transactions lost with the dead incarnation: the sources
   retain their committed log (the paper's ground-truth boundary) and
   answer a catch-up query for everything at or above the restored
   numbering position. *)
let catch_up t ~sources ~latency ~crashed_at =
  let ctx = t.ctx in
  Atomic.incr ctx.metrics.Metrics.source_queries;
  let issued = Proc.now ctx in
  Sim.Engine.schedule_after ctx.engine (ctx.sample latency) (fun () ->
      Sim.Stats.Summary.add ctx.metrics.Metrics.source_query_latency
        (Proc.now ctx -. issued);
      let missed =
        List.filter
          (fun (txn : Update.Transaction.t) ->
            txn.Update.Transaction.id >= Integrator.next_id t.integ)
          (Source.Sources.transactions sources)
      in
      List.iter (ingest t) missed;
      (* Everything the sources sent before now was just re-fetched; the
         fresh feed epoch delivers what they send after in order. *)
      t.feed.rx_rebase ();
      t.down <- false;
      Proc.recovered ctx ~crashed_at;
      ctx.record "integrator recovered (%d source transactions re-fetched)"
        (List.length missed))

let crash t ~replay_latency ~latency ~sources ~submitted =
  let ctx = t.ctx in
  let crashed_at = Proc.now ctx in
  t.down <- true;
  Atomic.incr ctx.metrics.Metrics.crashes;
  ctx.record "integrator crashed (losing numbering and log)";
  Durable.Wal.crash t.wal;
  t.feed.rx_down true;
  Proc.restart ctx t.trigger (fun () ->
      let ck_log, tail = Durable.Wal.recover_sealed t.wal in
      let log = ck_log @ tail in
      (* Every ingest is logged before it routes, so the numbering
         position is derivable from the log itself. *)
      let next_id =
        List.fold_left
          (fun acc ((txn : Update.Transaction.t), _) ->
            max acc (txn.Update.Transaction.id + 1))
          1 log
      in
      let replayed = List.length tail in
      ctx.recovery.wal_replayed <- ctx.recovery.wal_replayed + replayed;
      Integrator.restore t.integ ~next_id ~log;
      ctx.record "integrator restored: next id %d (%d WAL records replayed)"
        next_id replayed;
      Sim.Engine.schedule_after ctx.engine
        (replay_latency *. float_of_int replayed) (fun () ->
          resend t ~submitted;
          catch_up t ~sources ~latency ~crashed_at))
