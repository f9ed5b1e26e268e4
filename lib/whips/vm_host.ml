(* One view manager process: the manager itself, wrapped in the crash
   behaviour of a [Crash_vm] fault and the resync protocol that replays
   the integrator's retained log after a restart. *)
open Relational
open Config

(* The kinds the plan-driven manager ({!Viewmgr.Plan_vm}) runs: the plan
   its cache follows and how many queued transactions one step takes. *)
let plan_shape = function
  | Complete_vm -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.One)
  | Selfmaint_vm -> (Selfmaint.Plan.create, Viewmgr.Plan_vm.One)
  | Batching_vm -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.Greedy)
  | Complete_n_vm n -> (Selfmaint.Plan.replica, Viewmgr.Plan_vm.Exactly n)
  | Strobe_vm | Periodic_vm _ | Convergent_vm | Derived_vm _ ->
    invalid_arg "Vm_host.plan_shape: not a plan-driven manager"

(* What a host needs from the rest of the run. *)
type env = {
  ctx : Proc.ctx;
  latencies : latencies;
  initial : Database.t;
  integ : Integrator.t;  (* its retained log is the resync replay source *)
  sources : Source.Sources.t;  (* Strobe managers query them *)
  aux_durability : durability option;
      (* a self-maintaining manager logs its auxiliary state *)
  dedup_all : bool;  (* process crashes: every manager dedups by id *)
}

type t = {
  env : env;
  name : string;
  view : Query.View.t;
  kind : vm_kind;
  al : Proc.vm_msg Link.t;
  mutable feed : Link.port;  (* the integrator -> manager link *)
  mutable ctrl : Link.port;  (* the merge -> manager control link *)
  (* Pending REL forwards (Section 3.2's alternative scheme: the
     integrator hands REL_i to a relevant manager, which forwards it to
     the merge ahead of its next action list covering the row). *)
  owed : (int * string list * int) Queue.t;
  trigger : Proc.trigger;  (* counts emissions *)
  (* [incarnation] fences events scheduled by a dead incarnation of the
     manager (the engine cannot cancel events). *)
  mutable incarnation : int;
  mutable down : bool;
  mutable recovering : bool;
  mutable last_id : int;
  pending_recovery : Update.Transaction.t Queue.t;
  mutable resync_epoch : int;
  (* [resume] carries the plan, cache and group state the resync replay
     rebuilt into the next [build_inner]. *)
  mutable resume :
    (Selfmaint.Plan.t * (Database.t * Query.Compiled.groups)) option;
  (* The aux WAL checkpoints a self-maintaining manager's auxiliary state
     so that replay starts from the checkpoint, not from ss_0. *)
  aux_wal : (Database.t * int, int) Durable.Wal.t option;
  mutable aux_applies : int;
  mutable inner : Viewmgr.Vm.t;
  shared : Selfmaint.Plan.t option;
}

let emit_to_merge t al =
  (* Forward any RELs this manager owes the merge for rows the list
     covers, ahead of the list itself (same FIFO channel). *)
  let rec drain () =
    match Queue.peek_opt t.owed with
    | Some ((row, _, _) as fwd) when row <= al.Query.Action_list.state ->
      ignore (Queue.pop t.owed);
      t.al.send (`Rel fwd);
      drain ()
    | Some _ | None -> ()
  in
  drain ();
  t.al.send (`Al al)

let owe t fwd = Queue.push fwd t.owed

let aux_on_apply t (txn : Update.Transaction.t) cache =
  match (t.aux_wal, t.env.aux_durability) with
  | Some wal, Some dur ->
    Durable.Wal.append wal txn.Update.Transaction.id;
    t.aux_applies <- t.aux_applies + 1;
    if t.aux_applies mod dur.checkpoint_every = 0 then
      (* Contents only: memos hold process-local interned ids. *)
      Durable.Wal.checkpoint wal
        (Database.map Relation.contents_only cache, txn.Update.Transaction.id)
  | _ -> ()

let compute_latency t ~batch =
  t.env.ctx.sample (t.env.latencies.compute *. float_of_int (max 1 batch))

(* Open a fresh epoch on the action-list link — voiding anything the old
   one still carries — and ask the merge for its watermark. *)
let handshake t ~why =
  let epoch = Link.bump_epoch t.al ~otherwise:(t.resync_epoch + 1) in
  t.resync_epoch <- epoch;
  t.env.ctx.record "%s %s %d" t.name why epoch;
  t.al.send (`Resync epoch)

let crash t =
  let ctx = t.env.ctx in
  t.down <- true;
  t.incarnation <- t.incarnation + 1;
  Atomic.incr ctx.metrics.Metrics.crashes;
  ctx.record "%s crashed (losing its in-memory state)" t.name;
  (* The auxiliary WAL is a disk: it survives, minus the unsynced tail. *)
  Option.iter Durable.Wal.crash t.aux_wal;
  t.feed.rx_down true;
  Proc.restart ctx t.trigger (fun () ->
      t.down <- false;
      t.recovering <- true;
      (* Every transaction sent before now is in the integrator log the
         resync replays, which it reads later, and the handshake below
         supersedes any control message sent before now; the fresh
         epochs deliver what is sent after in order. *)
      t.feed.rx_rebase ();
      t.ctrl.rx_rebase ();
      handshake t ~why:"restarting, resync epoch")

let guarded_emit t inc al =
  if t.incarnation <> inc || t.down then ()
  else begin
    Proc.note t.trigger;
    if not t.down then emit_to_merge t al
  end

let remote_query env expr k =
  (* Request travel, evaluation at the source's then-current state,
     answer travel. Each call is a compensation round trip the
     self-maintaining managers exist to avoid, so it is counted. *)
  let ctx = env.ctx and half = env.latencies.query_roundtrip /. 2. in
  Atomic.incr ctx.metrics.Metrics.source_queries;
  let issued = Proc.now ctx in
  Sim.Engine.schedule_after ctx.engine (ctx.sample half) (fun () ->
      let contents =
        Relation.contents (Source.Sources.query env.sources expr)
      in
      let version = Source.Sources.last_id env.sources in
      Sim.Engine.schedule_after ctx.engine (ctx.sample half) (fun () ->
          Sim.Stats.Summary.add ctx.metrics.Metrics.source_query_latency
            (Proc.now ctx -. issued);
          k (contents, version)))

let build_inner t ~inc =
  let env = t.env and view = t.view in
  let ctx = env.ctx and initial = env.initial in
  let engine = ctx.engine and emit = guarded_emit t inc in
  let compute_latency = compute_latency t in
  match t.kind with
  | Strobe_vm ->
    Viewmgr.Strobe_vm.create ~engine ~query:(remote_query env) ~view ~emit ()
  | Periodic_vm period ->
    Viewmgr.Periodic_vm.create ~engine ~period ~compute_latency ~initial ~view
      ~emit ()
  | Convergent_vm ->
    Viewmgr.Convergent_vm.create ~engine
      ~emit_delay:(fun () ->
        ctx.sample (env.latencies.compute +. env.latencies.message))
      ~initial ~view ~emit ()
  | Derived_vm { aux; over_aux } ->
    Viewmgr.Derived_vm.create ~engine ~compute_latency ~initial ~aux ~view
      ~over_aux ~emit ()
  | Complete_vm | Selfmaint_vm | Batching_vm | Complete_n_vm _ ->
    let make_plan, drain = plan_shape t.kind in
    let plan, state =
      match (t.resume, t.shared) with
      | Some (plan, state), _ ->
        t.resume <- None;
        (plan, Some state)
      | None, Some plan -> (plan, None)
      | None, None ->
        let plan = make_plan ~initial view in
        if t.kind = Selfmaint_vm then begin
          let s = Selfmaint.Plan.storage plan and m = ctx.metrics in
          Metrics.add m.Metrics.aux_rows s.Selfmaint.Plan.aux_rows;
          Metrics.add m.Metrics.aux_cells s.Selfmaint.Plan.aux_cells;
          Metrics.add m.Metrics.aux_saved_cells
            (s.Selfmaint.Plan.replica_cells - s.Selfmaint.Plan.aux_cells)
        end;
        (plan, None)
    in
    Viewmgr.Plan_vm.create ~engine ~compute_latency ~exec:ctx.exec ?state
      ~on_apply:(aux_on_apply t) ~drain ~plan ~emit ()

(* Application-level id dedup is only needed around crash recovery
   (replay overlaps live retransmissions); without a crash fault the raw
   channel behaviour — including duplicate delivery under reliability
   Off — must stay observable. *)
let receive t txn =
  if t.down then ()
  else if t.recovering then Queue.push txn t.pending_recovery
  else if
    (t.trigger.at <> None || t.env.dedup_all)
    && txn.Update.Transaction.id <= t.last_id
  then ()
  else begin
    t.last_id <- txn.Update.Transaction.id;
    t.inner.Viewmgr.Vm.receive txn
  end

(* Re-derive the plan's cache from the integrator's retained log and
   recompute the action lists the merge has not seen (states > [w]).
   Recovery never queries the sources: the cache is rebuilt from the aux
   WAL checkpoint (when one exists at or below the merge watermark —
   later checkpoints cannot re-derive the action lists the merge still
   needs) or from ss_0, plus the integrator log suffix, with every
   replayed delta projected exactly like the live path. The group state
   is built by the first re-derived list and handed on, with plan and
   cache, to the resumed manager. *)
let replay t w =
  let exec = t.env.ctx.exec in
  let make_plan, _ = plan_shape t.kind in
  let plan = make_plan ~initial:t.env.initial t.view in
  let start_cache, from_id =
    match Option.map Durable.Wal.recover t.aux_wal with
    | Some (Some (ck, id), _) when id <= w -> (ck, id)
    | _ -> (Selfmaint.Plan.initial_cache plan, 0)
  in
  let cache = ref start_cache and groups = ref Query.Compiled.no_groups in
  let replayed = ref [] in
  List.iter
    (fun ((txn : Update.Transaction.t), _rel) ->
      let id = txn.Update.Transaction.id in
      let changes =
        Selfmaint.Plan.project plan (Query.Delta.of_transaction txn)
      in
      if id > w then begin
        let delta, g =
          Selfmaint.Plan.step ~exec plan ~pre:!cache ~groups:!groups changes
        in
        groups := g;
        replayed :=
          Query.Action_list.delta ~view:t.name ~state:id delta :: !replayed
      end;
      cache := Selfmaint.Plan.advance plan !cache changes)
    (Integrator.replay_for t.env.integ ~view:t.name ~after:from_id);
  (List.rev !replayed, (plan, (!cache, !groups)))

(* Read the integrator's retained log (one query round trip), replay,
   and resume. Both scheduled halves re-check the epoch: a newer
   handshake (another crash, a fresh merge demand) voids this one. *)
let resync t epoch w =
  let ctx = t.env.ctx in
  Sim.Engine.schedule_after ctx.engine
    (ctx.sample t.env.latencies.query_roundtrip) (fun () ->
      if epoch = t.resync_epoch then begin
        let head = Integrator.log_head t.env.integ in
        let lists, state = replay t w in
        let n = List.length lists in
        Sim.Engine.schedule_after ctx.engine
          (compute_latency t ~batch:(max 1 n)) (fun () ->
            if epoch = t.resync_epoch then begin
              List.iter (emit_to_merge t) lists;
              t.resume <- Some state;
              t.inner <- build_inner t ~inc:t.incarnation;
              t.last_id <- head;
              t.recovering <- false;
              Atomic.incr ctx.metrics.Metrics.recoveries;
              ctx.record
                "%s recovered: merge watermark %d, replayed %d lists up to U%d"
                t.name w n head;
              Queue.iter (receive t) t.pending_recovery;
              Queue.clear t.pending_recovery
            end)
      end)

let control t = function
  | Proc.Resync_demand ->
    (* A restarted merge asks for a fresh handshake. The manager is alive
       and its state is intact, but anything in flight or unacked on the
       AL link belongs to a dead merge incarnation: fence the current
       inner manager (its pending emissions are re-derived by the replay)
       and re-run the resync protocol. A demand that lands mid-recovery
       restarts the handshake — the epoch bump voids any reply or replay
       the dead merge still owes us. *)
    if not t.down then begin
      t.recovering <- true;
      t.incarnation <- t.incarnation + 1;
      handshake t ~why:"resyncing on merge demand, epoch"
    end
  | Resync_reply (epoch, w) ->
    if t.recovering && epoch = t.resync_epoch then resync t epoch w

let create env ~kind ~view ~crash:trigger ~shared ~al =
  let name = Query.View.name view in
  let aux_wal =
    match env.aux_durability with
    | Some dur when kind = Selfmaint_vm ->
      Some (Durable.Wal.create ~group_commit:dur.group_commit ())
    | _ -> None
  in
  let unbuilt =
    { Viewmgr.Vm.view; level = Viewmgr.Vm.Complete; receive = ignore;
      flush = ignore; needs_ticks = false; pending = (fun () -> 0) }
  in
  let t =
    { env; name; view; kind; al; feed = Link.no_port;
      ctrl = Link.no_port; owed = Queue.create ();
      trigger; incarnation = 0;
      down = false; recovering = false; last_id = 0;
      pending_recovery = Queue.create (); resync_epoch = 0; resume = None;
      aux_wal; aux_applies = 0; inner = unbuilt; shared }
  in
  t.trigger.fire <- (fun () -> crash t);
  t.inner <- build_inner t ~inc:0;
  t

(* The manager as the rest of the run sees it. *)
let vm t =
  { Viewmgr.Vm.view = t.view; level = t.inner.Viewmgr.Vm.level;
    receive = receive t;
    flush =
      (fun () ->
        if (not t.down) && not t.recovering then t.inner.Viewmgr.Vm.flush ());
    needs_ticks = t.inner.Viewmgr.Vm.needs_ticks;
    pending =
      (fun () ->
        if t.down then 0
        else
          t.inner.Viewmgr.Vm.pending ()
          + Queue.length t.pending_recovery
          + if t.recovering then 1 else 0) }
