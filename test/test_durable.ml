(* The durable warehouse: WAL + checkpoint unit laws, pinned
   process-crash recovery scenarios, and the recovery certificate.

   The Disk/Wal units pin the crash-consistency contract: group commit
   batches syncs, a crash loses at most one unsynced batch and leaves a
   torn tail that recovery detects and cuts, and checkpoints truncate
   replay work while surviving crashes.

   The pinned crash scenarios kill each stateful singleton process
   (merge, integrator, warehouse) mid-run under the acked reliability
   layer and require the recovered run to end in the exact final
   warehouse state of a crash-free twin — same commits, same contents —
   with the recovery certificate holding: no committed application lost,
   none applied twice, and every monotonic session's served versions
   nondecreasing across the restart. Without the reliability layer the
   crashed process stays dead and the run is stuck but safe: the
   committed history is a byte-exact prefix of the crash-free twin's. *)

open Whips
open Relational

let case = Helpers.case

let acked = System.Acked Sim.Reliable.default_params

let db = Alcotest.testable Database.pp Database.equal

let strong_or_better v = Consistency.Checker.(at_least Strong) v

let mentions needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- Disk / Wal unit laws ---- *)

let wal_tests =
  [ case "group commit batches syncs; a full batch flushes itself" (fun () ->
        let w : (unit, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:3 ()
        in
        Durable.Wal.append w 1;
        Durable.Wal.append w 2;
        Alcotest.(check int) "two buffered" 2 (Durable.Wal.pending w);
        Alcotest.(check int) "no sync yet" 0 (Durable.Wal.stats w).Durable.Disk.syncs;
        Durable.Wal.append w 3;
        Alcotest.(check int) "batch flushed" 0 (Durable.Wal.pending w);
        Alcotest.(check int) "one sync" 1 (Durable.Wal.stats w).Durable.Disk.syncs;
        let ck, tail = Durable.Wal.recover w in
        Alcotest.(check bool) "no checkpoint" true (ck = None);
        Alcotest.(check (list int)) "all three durable" [ 1; 2; 3 ] tail);
    case "a crash loses the unsynced batch; the torn tail is cut" (fun () ->
        let w : (unit, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:8 ()
        in
        List.iter (Durable.Wal.append w) [ 1; 2 ];
        Durable.Wal.sync w;
        List.iter (Durable.Wal.append w) [ 3; 4; 5 ];
        Durable.Wal.crash w;
        let ck, tail = Durable.Wal.recover w in
        Alcotest.(check bool) "no checkpoint" true (ck = None);
        Alcotest.(check (list int)) "synced prefix survives" [ 1; 2 ] tail;
        Alcotest.(check bool) "torn tail detected" true
          ((Durable.Wal.stats w).Durable.Disk.torn_discarded >= 1);
        (* A recovered log continues appending cleanly. *)
        Durable.Wal.append w 6;
        Durable.Wal.sync w;
        let _, tail = Durable.Wal.recover w in
        Alcotest.(check (list int)) "appends continue after the cut"
          [ 1; 2; 6 ] tail);
    case "checkpoint truncates the log and survives a crash" (fun () ->
        let w : (int list, int) Durable.Wal.t = Durable.Wal.create () in
        List.iter (Durable.Wal.append w) [ 1; 2; 3; 4 ];
        Durable.Wal.checkpoint w [ 10; 20 ];
        Alcotest.(check int) "records truncated" 4
          (Durable.Wal.stats w).Durable.Disk.truncated_records;
        List.iter (Durable.Wal.append w) [ 5; 6 ];
        (* group_commit 1: both appends synced, so the crash loses
           nothing. *)
        Durable.Wal.crash w;
        let ck, tail = Durable.Wal.recover w in
        Alcotest.(check (option (list int))) "checkpoint survives"
          (Some [ 10; 20 ]) ck;
        Alcotest.(check (list int)) "tail is post-checkpoint only" [ 5; 6 ]
          tail);
    case "incremental segments accumulate and replay in order" (fun () ->
        let w : (int list, int) Durable.Wal.t = Durable.Wal.create () in
        List.iter (Durable.Wal.append w) [ 1; 2 ];
        Durable.Wal.checkpoint_add w [ 1; 2 ];
        List.iter (Durable.Wal.append w) [ 3; 4 ];
        Durable.Wal.checkpoint_add w [ 3; 4 ];
        Durable.Wal.append w 5;
        Durable.Wal.crash w;
        let cks, tail = Durable.Wal.recover_segments w in
        Alcotest.(check (list (list int))) "segments oldest first"
          [ [ 1; 2 ]; [ 3; 4 ] ] cks;
        Alcotest.(check (list int)) "synced tail after last segment" [ 5 ]
          tail;
        Alcotest.(check int) "each segment truncated its log" 4
          (Durable.Wal.stats w).Durable.Disk.truncated_records;
        (* A full checkpoint collapses the segment chain back to one. *)
        Durable.Wal.checkpoint w [ 1; 2; 3; 4; 5 ];
        let cks, tail = Durable.Wal.recover_segments w in
        Alcotest.(check (list (list int))) "one segment after full ck"
          [ [ 1; 2; 3; 4; 5 ] ] cks;
        Alcotest.(check (list int)) "log empty after full ck" [] tail);
    case "sealed checkpoints adopt the log image verbatim" (fun () ->
        let w : (unit, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:3 ()
        in
        List.iter (Durable.Wal.append w) [ 1; 2 ];
        (* Seal must cover buffered-but-unsynced records too. *)
        Durable.Wal.seal w;
        Alcotest.(check int) "nothing left pending" 0 (Durable.Wal.pending w);
        List.iter (Durable.Wal.append w) [ 3; 4; 5 ];
        Durable.Wal.seal w;
        List.iter (Durable.Wal.append w) [ 6; 7 ];
        Durable.Wal.crash w;
        let ck, tail = Durable.Wal.recover_sealed w in
        Alcotest.(check (list int)) "sealed history in order" [ 1; 2; 3; 4; 5 ]
          ck;
        Alcotest.(check (list int)) "no durable tail survived the crash" []
          tail;
        let stats = Durable.Wal.stats w in
        Alcotest.(check int) "two seals counted" 2
          stats.Durable.Disk.checkpoints;
        Alcotest.(check int) "seals truncated their records" 5
          stats.Durable.Disk.truncated_records;
        (* An empty-image seal is pure bookkeeping: no new segment. *)
        Durable.Wal.seal w;
        let ck, _ = Durable.Wal.recover_sealed w in
        Alcotest.(check (list int)) "empty seal adds no segment"
          [ 1; 2; 3; 4; 5 ] ck);
    case "many seals and segments recover oldest first" (fun () ->
        let w : (unit, int) Durable.Wal.t = Durable.Wal.create () in
        for i = 1 to 300 do
          Durable.Wal.append w i;
          if i mod (1 + (i mod 3)) = 0 then Durable.Wal.seal w
        done;
        let ck, tail = Durable.Wal.recover_sealed w in
        Alcotest.(check (list int)) "every record, in append order"
          (List.init 300 (fun i -> i + 1))
          (ck @ tail);
        let w : (int, int) Durable.Wal.t = Durable.Wal.create () in
        for i = 1 to 100 do
          Durable.Wal.checkpoint_add w i
        done;
        let cks, _ = Durable.Wal.recover_segments w in
        Alcotest.(check (list int)) "segments in checkpoint order"
          (List.init 100 (fun i -> i + 1))
          cks) ]

(* ---- pinned process-crash recovery ---- *)

let crash_cfg ?reads ?(seed = 1) fault =
  { (System.default Workload.Scenarios.paper_views) with
    faults = [ fault ];
    reliability = acked;
    arrival = System.Poisson 60.0;
    reads;
    seed }

(* Run the faulted config and its crash-free twin; the recovered run
   must land in the twin's exact final state with the certificate
   holding. Returns the durability report for fault-specific checks. *)
let check_recovers fault =
  let cfg = crash_cfg fault in
  let crash = System.run cfg in
  let clean = System.run { cfg with faults = [] } in
  Alcotest.(check bool) "not stuck" false crash.stuck;
  Alcotest.(check int) "crashed" 1 (Atomic.get crash.metrics.Metrics.crashes);
  Alcotest.(check bool) "recovered" true
    (Atomic.get crash.metrics.Metrics.recoveries >= 1);
  Alcotest.check db "final state matches the crash-free twin"
    (Warehouse.Store.snapshot clean.store)
    (Warehouse.Store.snapshot crash.store);
  Alcotest.(check int) "same commit count"
    (Warehouse.Store.commit_count clean.store)
    (Warehouse.Store.commit_count crash.store);
  Alcotest.(check bool) "still consistent" true
    (strong_or_better (System.verdict crash));
  let cert = System.recovery_certificate crash in
  Alcotest.(check bool)
    (Format.asprintf "recovery certificate: %a"
       Consistency.Checker.pp_certificate cert)
    true
    (Consistency.Checker.certified cert);
  match crash.durability with
  | None -> Alcotest.fail "durable layer should be forced on"
  | Some d ->
    Alcotest.(check bool) "the WAL saw traffic" true (d.System.wal_appends > 0);
    d

(* Every pair of merge and warehouse crash points on one scenario. A
   restart's state transfer is fenced by the merge incarnation that
   scheduled it, and a crashed job's late emissions die with it. *)
let double_crash_grid () =
  let merge m = System.Crash_merge { at_event = m; restart_after = 0.05 } in
  let warehouse w = System.Crash_warehouse { at_event = w; restart_after = 0.05 } in
  for seed = 1 to 20 do
    let base = crash_cfg ~seed (merge 1) in
    let twin = System.run { base with faults = [] } in
    for m = 1 to 6 do
      for w = 1 to 8 do
        let label = Printf.sprintf "seed %d, merge %d, warehouse %d" seed m w in
        let r = System.run { base with faults = [ merge m; warehouse w ] } in
        Alcotest.(check bool) (label ^ ": drained") false r.stuck;
        Alcotest.check db (label ^ ": final state matches the twin")
          (Warehouse.Store.snapshot twin.store)
          (Warehouse.Store.snapshot r.store);
        Alcotest.(check bool) (label ^ ": certified") true
          (Consistency.Checker.certified (System.recovery_certificate r))
      done
    done
  done

let crash_tests =
  [ case "merge x warehouse double crashes recover (960 runs)"
      double_crash_grid;
    case "crashed merge recovers: state transfer + VM resync" (fun () ->
        let d =
          check_recovers
            (System.Crash_merge { at_event = 3; restart_after = 0.05 })
        in
        (* Merge recovery re-derives WTs for already-submitted rows; the
           idempotence guard at the submitter drops them. *)
        Alcotest.(check bool) "recovery took simulated time" true
          (d.System.recovery_time > 0.0));
    case "crashed integrator recovers: checkpoint + WAL replay + re-fetch"
      (fun () ->
        let d =
          check_recovers
            (System.Crash_integrator { at_event = 2; restart_after = 0.05 })
        in
        Alcotest.(check bool) "recovery took simulated time" true
          (d.System.recovery_time > 0.0));
    case "crashed warehouse recovers: store rebuilt from checkpoint + WAL"
      (fun () ->
        let d =
          check_recovers
            (System.Crash_warehouse { at_event = 2; restart_after = 0.05 })
        in
        Alcotest.(check bool) "commits were restored" true
          (d.System.commits_restored > 0));
    case "warehouse crash with serving attached: reads stay monotonic"
      (fun () ->
        let cfg =
          crash_cfg ~reads:System.default_reads ~seed:3
            (System.Crash_warehouse { at_event = 2; restart_after = 0.05 })
        in
        let r = System.run cfg in
        Alcotest.(check bool) "not stuck" false r.stuck;
        Alcotest.(check bool) "reads were served" true
          (Atomic.get r.metrics.Metrics.reads > 0);
        let cert = System.recovery_certificate r in
        Alcotest.(check bool) "served versions never went backwards" true
          cert.Consistency.Checker.monotonic_serving;
        Alcotest.(check bool)
          (Format.asprintf "certificate: %a" Consistency.Checker.pp_certificate
             cert)
          true
          (Consistency.Checker.certified cert));
    case "crashed merge without the reliability layer stays dead but safe"
      (fun () ->
        let cfg =
          { (crash_cfg (System.Crash_merge { at_event = 3; restart_after = 0.05 }))
            with reliability = System.Off }
        in
        let crash = System.run cfg in
        let clean = System.run { cfg with faults = [] } in
        Alcotest.(check bool) "stuck" true crash.stuck;
        Alcotest.(check int) "crashed" 1
          (Atomic.get crash.metrics.Metrics.crashes);
        Alcotest.(check int) "no recovery" 0
          (Atomic.get crash.metrics.Metrics.recoveries);
        (* Nothing wrong was merged: the committed history is a prefix
           of the crash-free twin's. *)
        let crashed = Warehouse.Store.commits crash.store in
        let full = Warehouse.Store.commits clean.store in
        Alcotest.(check bool) "a strict prefix committed" true
          (List.length crashed < List.length full);
        List.iteri
          (fun i (c : Warehouse.Store.commit) ->
            let c' = List.nth full i in
            Alcotest.check db
              (Printf.sprintf "state %d matches the twin" (i + 1))
              c'.Warehouse.Store.state c.Warehouse.Store.state)
          crashed) ]

(* ---- configuration-corner validation ---- *)

let rejects name expected cfg =
  case name (fun () ->
      Alcotest.check_raises "invalid_arg" (Invalid_argument expected)
        (fun () -> ignore (System.run cfg)))

let validation_tests =
  let fault = System.Crash_merge { at_event = 1; restart_after = 0.05 } in
  let base = crash_cfg fault in
  let plain = System.default Workload.Scenarios.paper_views in
  let seq = { plain with merge_kind = System.Sequential } in
  let strawman what = "System: the Sequential baseline cannot honour " ^ what in
  [ rejects "process crashes need the pipelined runtime"
      "System: process crash faults (merge/integrator/warehouse) need the \
       pipelined runtime"
      { base with merge_kind = System.Sequential };
    rejects "process crashes need a non-Fused merge_batch"
      "System: process crash faults require a non-Fused merge_batch \
       (recovery identifies completed work by per-row WTs)"
      { base with merge_batch = System.Fused };
    rejects "process crashes need Direct REL routing"
      "System: process crash faults require Direct REL routing"
      { base with rel_routing = System.Via_manager };
    rejects "process crashes need the semantic filter off"
      "System: process crash faults require semantic_filter = false"
      { base with semantic_filter = true };
    rejects "process crashes need complete view managers"
      "System: process crash faults require Complete_vm or Selfmaint_vm view \
       managers"
      { base with vm_kind = System.Batching_vm };
    rejects "process crashes need the SPA merge"
      "System: process crash faults require the SPA merge"
      { base with merge_kind = System.Force_pa };
    rejects "process crashes need Keep_all store retention"
      "System: process crash faults require Keep_all store retention \
       (checkpoints re-apply the full commit history)"
      { base with store_retention = Warehouse.Store.Keep_last 4 };
    rejects "the strawman refuses faults" (strawman "faults")
      { seq with
        faults = [ System.Drop_action_list { view = "V1"; nth = 1 } ] };
    rejects "the strawman refuses a fault plan" (strawman "a fault_plan")
      { seq with fault_plan = Workload.Fault_plan.random ~drop:0.1 "*" };
    rejects "the strawman refuses acked links"
      (strawman "reliability = Acked")
      { seq with reliability = acked };
    rejects "the strawman refuses the durable layer" (strawman "durable")
      { seq with durable = Some System.default_durability };
    rejects "Crash_vm needs a log-replay manager"
      "System: Crash_vm faults support Complete_vm, Selfmaint_vm and \
       Batching_vm managers (log-replay recovery)"
      { plain with
        vm_kind = System.Strobe_vm;
        reliability = acked;
        faults =
          [ System.Crash_vm { view = "V1"; at_event = 1; restart_after = 0.05 } ]
      };
    rejects "reads need a session" "System: cfg.reads needs at least one session"
      { plain with reads = Some { System.default_reads with sessions = [] } } ]

(* ---- give-up is an event, not a post-mortem ---- *)

let give_up_tests =
  [ case "a dead link's give-up is surfaced at event time" (fun () ->
        (* Drop every frame on V2's action-list channel: the sender
           exhausts its retries, fires on_give_up, and the run records
           the death in the timeline at the moment it happened. *)
        let params = { Sim.Reliable.default_params with max_retries = 2 } in
        let cfg =
          { (System.default Workload.Scenarios.paper_views) with
            fault_plan =
              Workload.Fault_plan.random ~drop:1.0 ~duplicate:0.0 ~delay:0.0
                ~delay_by:0.0 "V2->merge";
            reliability = System.Acked params;
            record_timeline = true;
            arrival = System.Poisson 60.0;
            seed = 5 }
        in
        let r = System.run cfg in
        Alcotest.(check bool) "stuck" true r.stuck;
        Alcotest.(check bool) "give-up counted" true
          (Atomic.get r.metrics.Metrics.gave_up >= 1);
        Alcotest.(check bool) "timeline records the death" true
          (List.exists (fun (_, e) -> mentions "gave up" e) r.timeline)) ]

let tests =
  wal_tests @ crash_tests @ validation_tests @ give_up_tests
