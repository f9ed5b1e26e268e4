(* The merge process of Figure 1, one per merge group (Section 6.1,
   Figure 3): a merge algorithm over its VUT behind a single-threaded
   service queue, the REL reorderers of via-manager routing, the
   delivery-time dedup and resync fencing that crash recovery needs, and
   the crash, restart and state transfer of the whole process. *)

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
type server = {
  submit : (unit -> unit) * (unit -> unit) -> unit;
  pending : unit -> int;
  reset : unit -> unit;
      (* process crash: drop queued jobs, fence the in-flight one *)
}

let make_server ~batch engine ~exec ~latency =
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
  { submit = (fun job -> Queue.push job queue; pump ());
    pending = (fun () -> Queue.length queue + if !busy then 1 else 0);
    reset = (fun () -> incr gen; Queue.clear queue; busy := false) }

(* Merge groups balanced by estimated evaluation cost — the summed
   initial cardinality of each view's base relations — so that with
   parallel merge groups every domain gets comparable work, not just a
   comparable view count. *)
let partition ~initial views = function
  | None -> [ views ]
  | Some k ->
    let weight v =
      List.fold_left
        (fun acc r ->
          acc
          +
          match Relational.Database.find initial r with
          | rel -> Relational.Relation.cardinal rel
          | exception _ -> 0)
        1 (Query.View.base_relations v)
    in
    Mvc.Partition.coarsen ~weight ~max_groups:k (Mvc.Partition.groups views)

(* Forwarded RELs can reach the merge out of row order (they travel on
   different managers' channels), while the painting algorithms assume
   that when an action list covering row j is processed, every group REL
   for rows <= j has been seen. Each forward therefore carries the
   previous row routed to the same merge, and the reorderer ingests RELs
   strictly in that chain order. *)
type reorderer = {
  waiting : (int, int * string list * int) Hashtbl.t;
  mutable last : int;
}

let rec reorder t merge ((row, rel, prev) as fwd) =
  if prev = t.last then begin
    Mvc.Merge.receive_rel merge ~row ~rel;
    t.last <- row;
    match Hashtbl.find_opt t.waiting row with
    | Some next ->
      Hashtbl.remove t.waiting row;
      reorder t merge next
    | None -> ()
  end
  else Hashtbl.replace t.waiting prev fwd

type t = {
  ctx : Proc.ctx;
  algorithm : Mvc.Merge.algorithm;
  groups : string list array;
  group_of : (string, int) Hashtbl.t;
  (* A crash replaces a group's merge with a fresh incarnation, so
     everything reads it through the array at use time. *)
  merges : Mvc.Merge.t array;
  (* A merge's [emit] fires inside its group's work half, which may be
     running on a pool domain; WTs are buffered group-locally and handed
     on from the simulation domain — in emission order — by the job's
     finish half (or by [flush]). *)
  emitted : Warehouse.Wt.t Queue.t array;
  servers : server array;
  reorderers : reorderer array;
  (* Per-group row dedup for REL deliveries (process-crash runs only):
     after a restart, the state transfer and the integrator's live ARQ
     retransmits overlap, and SPA must see each group REL exactly once. *)
  rel_seen : (int, unit) Hashtbl.t array;
  (* Highest action-list state received per view: the watermark a
     restarting manager resyncs against. *)
  watermarks : (string, int) Hashtbl.t;
  (* Views whose managers a restarted merge has not yet re-handshaked
     with. Until a view's [`Resync] marker (the first frame of the
     manager's fresh epoch) arrives, any action list delivered for it is
     a remnant of the dead merge's stream — a pre-crash in-flight frame
     the reset receiver adopted — and delivering it would violate SPA's
     per-manager FIFO invariant. Dropping is safe: the resync replay
     re-derives every state above the submitted watermark. *)
  awaiting_resync : (string, unit) Hashtbl.t;
  (* Occupancy snapshots, refreshed on the simulation domain whenever a
     group's state settles (job finish, flush): reading another group's
     merge live would race with its in-flight work. *)
  held : int array;
  live : int array;
  dedup : bool;
  trigger : Proc.trigger;
  mutable down : bool;
  mutable incarnation : int;  (* bumped by every crash *)
  mutable ports : Link.port list;
      (* the links whose receiving half the merge owns *)
  mutable ctrls : Proc.ctrl_msg Link.t list;
      (* merge -> manager, newest first: resync demands go out in this
         order, and each send draws a latency *)
  wh : Warehouse_proc.t;  (* where ready runs go *)
  mutable jobs : int;  (* jobs finished: a shard's merge events *)
}

(* A fresh merge for group [gi], emitting into a fresh queue. The work
   half of a job fenced by a crash still runs when it is joined — under a
   sequential exec that is at its completion event, after the wipe — and
   its emissions must land in the dead incarnation's queue, which nobody
   reads any more. *)
let incarnate algorithm emitted gi views =
  let queue = Queue.create () in
  emitted.(gi) <- queue;
  Mvc.Merge.create algorithm ~views ~emit:(fun wt -> Queue.push wt queue)

let create (ctx : Proc.ctx) ~algorithm ~groups ~batch ~latency ~dedup
    ~crash ~wh =
  let groups = Array.of_list (List.map (List.map Query.View.name) groups) in
  let n = Array.length groups in
  let emitted = Array.make n (Queue.create ()) in
  let group_of = Hashtbl.create 16 in
  Array.iteri
    (fun gi g -> List.iter (fun v -> Hashtbl.replace group_of v gi) g)
    groups;
  { ctx; algorithm; groups; group_of;
    merges = Array.mapi (incarnate algorithm emitted) groups;
    emitted;
    servers =
      Array.init n (fun _ ->
          make_server ~batch ctx.engine ~exec:ctx.exec ~latency:(fun () ->
              (* Wrapping the sample changes no RNG draw — the
                 service-time summary rides along for free. *)
              let l = ctx.sample latency in
              Sim.Stats.Summary.add ctx.metrics.Metrics.merge_service_time l;
              l));
    reorderers =
      Array.init n (fun _ -> { waiting = Hashtbl.create 16; last = 0 });
    rel_seen = Array.init n (fun _ -> Hashtbl.create 64);
    watermarks = Hashtbl.create 16; awaiting_resync = Hashtbl.create 16;
    held = Array.make n 0; live = Array.make n 0; dedup;
    trigger = crash; down = false; incarnation = 0;
    ports = []; ctrls = []; wh;
    jobs = 0 }

let group_of t view = Hashtbl.find t.group_of view

let watermark t view =
  Option.value ~default:0 (Hashtbl.find_opt t.watermarks view)

let pending t = Array.fold_left (fun acc s -> acc + s.pending ()) 0 t.servers

let snapshot t gi =
  t.held.(gi) <- Mvc.Merge.held_action_lists t.merges.(gi);
  t.live.(gi) <- Mvc.Merge.live_rows t.merges.(gi)

(* A job's finish: refresh the group's snapshot, hand the ready run on
   and sample the merge gauges. *)
let settle t gi =
  t.jobs <- t.jobs + 1;
  snapshot t gi;
  Warehouse_proc.take t.wh t.emitted.(gi);
  let m = t.ctx.metrics in
  Sim.Stats.Summary.add m.Metrics.merge_held
    (float_of_int (Array.fold_left ( + ) 0 t.held));
  Sim.Stats.Summary.add m.Metrics.merge_live_rows
    (float_of_int (Array.fold_left ( + ) 0 t.live));
  Sim.Stats.Summary.add m.Metrics.merge_queue_depth (float_of_int (pending t))

(* Hand one group REL to a merge server — shared by live channel delivery
   and the restart-time state transfer (which bypasses the channel: FIFO
   server queues then guarantee the transferred RELs process before any
   replayed action list that needs them). *)
let deliver_rel t gi row rel =
  t.servers.(gi).submit
    ( (fun () -> Mvc.Merge.receive_rel t.merges.(gi) ~row ~rel),
      fun () ->
        t.ctx.record "merge <- REL_%d = {%a}" row Proc.names rel;
        settle t gi )

(* A process event at the merge: false when the merge is down or crashes
   on this very event (the message is the casualty). *)
let alive t =
  if t.down then false
  else begin
    Proc.note t.trigger;
    not t.down
  end

(* Delivery end of the integrator -> merge REL link of group [gi]. *)
let receive_rel t gi (row, rel) =
  if alive t then
    if t.dedup && Hashtbl.mem t.rel_seen.(gi) row then
      t.ctx.record "merge dropped duplicate REL_%d" row
    else begin
      if t.dedup then Hashtbl.replace t.rel_seen.(gi) row ();
      deliver_rel t gi row rel
    end

(* Delivery-time dedup around merge restarts: a replayed action list at
   or below the view's delivered watermark would trip SPA's
   strictly-increasing state check. Only live under process-crash faults
   — crash-free runs keep the raw channel behaviour. *)
let duplicate t = function
  | `Al al when t.dedup ->
    let view = al.Query.Action_list.view in
    al.Query.Action_list.state <= watermark t view
    || begin
      Hashtbl.replace t.watermarks view al.Query.Action_list.state;
      false
    end
  | _ -> false

(* Delivery end of a manager -> merge link. Work half: group-local
   painting/reordering, safe off the simulation domain. Finish half:
   timeline records, the watermark table (shared across groups), control
   replies and the ready-run hand-off — simulation domain only. *)
let receive_vm t ~view ~reply msg =
  if alive t then begin
    (match msg with
    | `Resync _ -> Hashtbl.remove t.awaiting_resync view
    | _ -> ());
    match msg with
    | `Al _ when Hashtbl.mem t.awaiting_resync view ->
      t.ctx.record "merge dropped pre-resync AL(%s)" view
    | _ when duplicate t msg ->
      t.ctx.record "merge dropped duplicate AL(%s)" view
    | _ ->
      let gi = group_of t view and record = t.ctx.record in
      let work, finish =
        match msg with
        | `Rel ((row, _, _) as fwd) ->
          ( (fun () -> reorder t.reorderers.(gi) t.merges.(gi) fwd),
            fun () -> record "merge <- forwarded REL_%d (via %s)" row view )
        | `Al al ->
          ( (fun () -> Mvc.Merge.receive_action_list t.merges.(gi) al),
            fun () ->
              let v = al.Query.Action_list.view in
              let s = al.Query.Action_list.state in
              record "merge <- AL(%s, %d)" v s;
              if s > watermark t v then Hashtbl.replace t.watermarks v s )
        | `Resync epoch ->
          ( ignore,
            fun () ->
              record "merge <- resync(%s, epoch %d)" view epoch;
              reply (Proc.Resync_reply (epoch, watermark t view)) )
      in
      t.servers.(gi).submit (work, fun () -> finish (); settle t gi)
  end

(* A manager's links: the merge owns the receiving half of [al] and the
   sending half of [ctrl]. *)
let connect t ~al ~ctrl =
  t.ports <- Link.port al :: t.ports;
  t.ctrls <- ctrl :: t.ctrls

(* An integrator -> merge REL link. *)
let listen t link = t.ports <- Link.port link :: t.ports

(* Flush runs between engine passes, with no job in flight; refresh the
   group's snapshot and hand on anything the flush emitted so snapshots
   track live state exactly. A down merge has nothing to flush (its
   restart is an engine event, so it never interleaves with a flush). *)
let flush t gi =
  if not t.down then begin
    Mvc.Merge.flush t.merges.(gi);
    snapshot t gi;
    Warehouse_proc.take t.wh t.emitted.(gi)
  end

let quiescent t =
  (not t.down) && pending t = 0
  && Array.for_all Queue.is_empty t.emitted
  && Array.for_all (fun r -> Hashtbl.length r.waiting = 0) t.reorderers
  && Array.for_all Mvc.Merge.quiescent t.merges

(* The crash: the VUTs, reorderers, queued work and dedup state are
   lost. *)
let wipe t =
  t.down <- true;
  t.incarnation <- t.incarnation + 1;
  List.iter (fun p -> p.Link.rx_down true) t.ports;
  Array.iter (fun s -> s.reset ()) t.servers;
  Array.iter Queue.clear t.emitted;
  Array.iter Hashtbl.reset t.rel_seen;
  Hashtbl.reset t.watermarks

(* Fresh merge incarnations with empty VUTs. The row dedup is seeded with
   every submitted row (their RELs must never be re-ingested), and the
   watermark table restarts at what actually reached the warehouse — the
   resync replies tell each manager to replay everything after that. *)
let restart t =
  let wh = t.wh in
  Array.iteri
    (fun gi views -> t.merges.(gi) <- incarnate t.algorithm t.emitted gi views)
    t.groups;
  Array.iteri
    (fun gi seen ->
      Hashtbl.reset seen;
      Hashtbl.iter
        (fun row () -> Hashtbl.replace seen row ())
        wh.Warehouse_proc.submitted_rows;
      snapshot t gi)
    t.rel_seen;
  Hashtbl.reset t.watermarks;
  Hashtbl.iter (fun v s -> Hashtbl.replace t.watermarks v s) wh.submitted_marks;
  (* Fence every manager's stream until its fresh-epoch [`Resync] marker
     arrives: the replay after it re-derives every list past the
     watermark. *)
  Array.iter
    (List.iter (fun v -> Hashtbl.replace t.awaiting_resync v ()))
    t.groups;
  (* Every REL and list sent before now is voided: the transfer reads the
     integrator log later, and the managers replay. Fresh epochs deliver
     what is sent after in order. *)
  List.iter (fun p -> p.Link.rx_rebase ()) t.ports;
  List.iter (fun l -> Link.bump_epoch l ~otherwise:0 |> ignore) t.ctrls;
  t.down <- false

(* State transfer from the integrator's retained log: the complete
   group-REL set for every unsubmitted row, handed straight into the
   merge servers in id order. The FIFO server queues then guarantee each
   replayed action list (which arrives strictly later, after the resync
   handshake) processes after every REL it depends on. *)
let transfer t integ =
  List.iter
    (fun ((stamped : Relational.Update.Transaction.t), rel) ->
      let row = stamped.Relational.Update.Transaction.id in
      if not (Warehouse_proc.submitted t.wh row) then
        List.iter
          (fun (gi, rel_group) ->
            if not (Hashtbl.mem t.rel_seen.(gi) row) then begin
              Hashtbl.replace t.rel_seen.(gi) row ();
              t.ctx.record
                "merge restart: REL_%d transferred from integrator log" row;
              deliver_rel t gi row rel_group
            end)
          (Integrator.route_shards ~assignment:(group_of t) rel))
    (Integrator.retained_log integ);
  List.iter (fun (l : Proc.ctrl_msg Link.t) -> l.send Proc.Resync_demand) t.ctrls

(* A restarted merge reads the integrator log one query round trip
   later — unless it crashed again meanwhile: like a manager's resync
   fenced by its epoch, a transfer scheduled by a dead incarnation would
   enqueue RELs into wiped (or down) servers that the next incarnation's
   own transfer delivers again. *)
let schedule_transfer t integ ~latency =
  let inc = t.incarnation in
  Sim.Engine.schedule_after t.ctx.engine (t.ctx.sample latency) (fun () ->
      if inc = t.incarnation && not t.down then transfer t integ
      else t.ctx.record "merge: state transfer of a dead incarnation dropped")

let crash t ~integ ~latency =
  let ctx = t.ctx in
  let crashed_at = Proc.now ctx in
  Atomic.incr ctx.metrics.Metrics.crashes;
  ctx.record "merge crashed (losing VUT, reorderers and queued work)";
  wipe t;
  Proc.restart ctx t.trigger (fun () ->
      restart t;
      Proc.recovered ctx ~crashed_at;
      ctx.record "merge restarted; reading integrator log for transfer";
      schedule_transfer t integ ~latency)
