(* The warehouse process: the store behind its commit submitter, the
   write-ahead log that makes every applied commit recoverable, the
   receive guards a ready run passes on its way from the merge, and the
   crash and restore of the whole process. *)
open Config

type t = {
  ctx : Proc.ctx;
  store : Warehouse.Store.t;
  submitter : Warehouse.Submitter.t;
  (* The WAL handle exists unconditionally so the report can read its
     stats; appends are gated on [durable]. *)
  wal : (unit, float * Warehouse.Wt.t) Durable.Wal.t;
  durable : durability option;
  fused : bool;
  (* Process-crash runs track the rows whose WTs have been handed to the
     submitter, and per view the highest action-list state among them.
     This is the ground recovery dedups against: a restarted merge
     re-derives exactly the rows not here, and replayed action lists at
     or below a view's mark are duplicates. Rebuilt from the restored
     commit history after a warehouse crash (anything submitted but
     uncommitted died with the submitter queue and must be re-derived). *)
  track : bool;
  submitted_rows : (int, unit) Hashtbl.t;
  submitted_marks : (string, int) Hashtbl.t;
  trigger : Proc.trigger;
  mutable down : bool;
  (* Fused-run records for {!Consistency.Checker.certify_fused}: the
     emission sequence (rows per emitted WT) and each fused batch's
     constituent parts, both accumulated newest-first. *)
  mutable fused_emitted : int list list;
  mutable fused_parts : (int list * Query.Action_list.t list) list list;
  mutable dup_wts : int;
  mutable commits_restored : int;
}

let run_tasks (ctx : Proc.ctx) = function
  (* Fan a run plan's independent per-view walks across the domain pool;
     planning happens on the simulation domain at the run's first commit
     event, so joining here blocks nothing else. *)
  | [] -> ()
  | [ task ] -> task ()
  | tasks ->
    List.iter Parallel.Exec.await
      (List.map (fun task -> Parallel.Exec.spawn ctx.exec task) tasks)

let on_plan (ctx : Proc.ctx) (p : Warehouse.Store.run_plan) =
  let m = ctx.metrics in
  Atomic.incr m.Metrics.merge_runs;
  Metrics.add m.Metrics.coalesced_in p.Warehouse.Store.coalesced_in;
  Metrics.add m.Metrics.coalesced_out p.Warehouse.Store.coalesced_out;
  Metrics.add m.Metrics.coalesce_fallbacks p.Warehouse.Store.seq_fallbacks

(* [durable] turns the WAL on, checkpointed by sealing every
   [checkpoint_every] commits; [on_commit] fires after each commit. *)
let create (ctx : Proc.ctx) ~policy ~commit_latency ~store ~durable ~fused
    ~track ~crash ~on_commit =
  let wal = Durable.Wal.create ~group_commit:1 () in
  let submitter =
    Warehouse.Submitter.create ctx.engine ~policy
      ~commit_latency:(fun () -> ctx.sample commit_latency)
      ~store ~run_tasks:(run_tasks ctx) ~on_plan:(on_plan ctx)
      ~pre_commit:(fun ~time wt ->
        (* Write-ahead: the WT is durable before the store applies it, so
           every applied commit is reproducible from checkpoint + WAL. A
           fused run was already logged as one group frame at release
           ({!Durable.Wal.append_group}), part by part. *)
        if durable <> None && not fused then Durable.Wal.append wal (time, wt))
      ~on_commit:(fun wt ->
        on_commit wt;
        match durable with
        | Some dur
          when Warehouse.Store.commit_count store mod dur.checkpoint_every = 0
          ->
          (* Checkpoints are sealed: the log records exactly the commits,
             so a checkpoint adopts the synced WAL image as the next
             segment — zero re-marshaling. *)
          Durable.Wal.seal wal
        | _ -> ())
      ()
  in
  { ctx; store; submitter; wal; durable; fused; track;
    submitted_rows = Hashtbl.create 64; submitted_marks = Hashtbl.create 16;
    trigger = crash; down = false; fused_emitted = [];
    fused_parts = []; dup_wts = 0; commits_restored = 0 }

let note_submitted t (wt : Warehouse.Wt.t) =
  List.iter (fun row -> Hashtbl.replace t.submitted_rows row ()) wt.rows;
  List.iter
    (fun al ->
      let view = al.Query.Action_list.view in
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt t.submitted_marks view)
      in
      if al.Query.Action_list.state > cur then
        Hashtbl.replace t.submitted_marks view al.Query.Action_list.state)
    wt.actions

let submitted t row = Hashtbl.mem t.submitted_rows row

(* Pop everything a merge step emitted — the ready run, in emission
   order — through the warehouse's receive guards, one WT at a time: the
   crash counter, a down or just-crashed warehouse, and the duplicate-row
   drop and submitted-row seeding that crash recovery's accounting
   depends on. A crash loses the whole run: the WTs before it with the
   submitter queue, the WTs after it with the merge. *)
let admit t emitted =
  let record = t.ctx.record in
  let size = Queue.length emitted in
  let pos = ref 0 and run = ref [] in
  while not (Queue.is_empty emitted) do
    incr pos;
    let wt = Queue.pop emitted in
    let rows = wt.Warehouse.Wt.rows in
    if t.down then
      record "warehouse down: WT for rows [%a] lost" Proc.row_ids rows
    else begin
      Proc.note t.trigger;
      if t.down then
        record "warehouse crashed receiving WT %d of a %d-WT run (rows [%a])"
          !pos size Proc.row_ids rows
      else if t.track && rows <> [] && List.for_all (submitted t) rows
      then begin
        (* Recovery re-derived a WT the pre-crash incarnation already
           submitted; committing it twice would double-apply. *)
        t.dup_wts <- t.dup_wts + 1;
        record "duplicate WT for rows [%a] dropped at submit" Proc.row_ids rows
      end
      else begin
        if t.track then note_submitted t wt;
        run := wt :: !run
      end
    end
  done;
  if t.down then [] else List.rev !run

(* Hand a merge group's ready run to the submitter. *)
let take t emitted =
  match admit t emitted with
  | [] -> ()
  | wts ->
    let n = List.length wts in
    Sim.Stats.Summary.add t.ctx.metrics.Metrics.merge_batch_size
      (float_of_int n);
    if not t.fused then
      (* The whole run reaches the submitter as a unit: each WT keeps its
         own commit event and latency draw, but the store plans the run's
         view timelines in one coalesced pass at the first commit. *)
      Warehouse.Submitter.submit_run t.submitter wts
    else begin
      (* The run is released as one batched warehouse transaction: the
         store lands on the run's endpoint and skips its intermediate
         states (batching consistency). The parts and the emission
         sequence are recorded for {!Consistency.Checker.certify_fused},
         and the durable layer gets the run as one WAL group frame. *)
      List.iter
        (fun (wt : Warehouse.Wt.t) ->
          t.fused_emitted <- wt.rows :: t.fused_emitted)
        wts;
      t.fused_parts <-
        List.map (fun (wt : Warehouse.Wt.t) -> (wt.rows, wt.actions)) wts
        :: t.fused_parts;
      if t.durable <> None then
        Durable.Wal.append_group t.wal
          (List.map (fun wt -> (Proc.now t.ctx, wt)) wts);
      let bwt = Warehouse.Wt.batch wts in
      if n > 1 then
        t.ctx.record "merge: fused %d WTs into one BWT (rows [%a])" n
          Proc.row_ids bwt.Warehouse.Wt.rows;
      (* As a single-entry run so the submitter plans it: the BWT's action
         lists are coalesced per view — a batch cancels its own churn —
         and the per-view walks fan across the pool. *)
      Warehouse.Submitter.submit_run t.submitter [ bwt ]
    end

let outstanding t = Warehouse.Submitter.outstanding t.submitter

(* The crash loses the store and the submitter queue; [on_down] stops
   what depends on a live warehouse, and [on_restored] restarts it once
   checkpoint + WAL replay have rebuilt the store. *)
let crash t ~replay_latency ~on_down ~on_restored =
  let ctx = t.ctx in
  let crashed_at = Proc.now ctx in
  t.down <- true;
  Atomic.incr ctx.metrics.Metrics.crashes;
  ctx.record "warehouse crashed (losing store and submitter queue)";
  Durable.Wal.crash t.wal;
  Warehouse.Submitter.reset t.submitter;
  Hashtbl.reset t.submitted_rows;
  Hashtbl.reset t.submitted_marks;
  on_down ();
  Proc.restart ctx t.trigger (fun () ->
      let restored_ck, tail = Durable.Wal.recover_sealed t.wal in
      let commits = restored_ck @ tail in
      let n = List.length commits and replayed = List.length tail in
      ctx.recovery.wal_replayed <- ctx.recovery.wal_replayed + replayed;
      ctx.record "warehouse restored: %d commits (%d from the WAL tail)" n
        replayed;
      Sim.Engine.schedule_after ctx.engine
        (replay_latency *. float_of_int replayed) (fun () ->
          Warehouse.Store.restore t.store commits;
          t.commits_restored <- t.commits_restored + n;
          List.iter (fun (_, wt) -> note_submitted t wt) commits;
          t.down <- false;
          on_restored ();
          Proc.recovered ctx ~crashed_at;
          ctx.record
            "warehouse recovered (%d commits restored); merge restarting" n))
