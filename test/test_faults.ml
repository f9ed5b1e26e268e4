(* Resilience under message loss, duplication, and crashes.

   With reliability OFF these tests pin down exactly what breaks when the
   painting algorithms' reliable-FIFO assumption is violated:

   - losing a view's *last* pending list stops progress (the merge holds
     dependent rows forever) but never exposes an inconsistent state;
   - losing a list *followed by another from the same manager* is a FIFO
     gap. SPA detects it (an earlier white entry in the same column cannot
     happen under complete managers + FIFO) and refuses to proceed; PA
     cannot distinguish a gap from legitimate batching, silently converges
     to wrong contents — and the consistency oracle catches it.

   With reliability ON (the ARQ layer of Sim.Reliable), the same faults
   are detected and repaired — the gap triggers a NACK and a selective
   retransmit, a lost final message is retransmitted on timeout, and a
   crashed view manager resyncs against the merge's watermark and replays
   the integrator's log — and the oracle confirms the MVC guarantees
   survive. The qcheck soak sweeps random fault plans across vm kinds and
   merge algorithms. *)

open Whips

let case = Helpers.case

let lossy ?(vm_kind = System.Complete_vm) ?merge_kind
    ?(reliability = System.Off) ?(scen = Workload.Scenarios.paper_views)
    ~view ~nth seed =
  let cfg =
    { (System.default scen) with
      vm_kind;
      faults = [ System.Drop_action_list { view; nth } ];
      reliability;
      arrival = System.Poisson 60.0;
      seed }
  in
  let cfg =
    match merge_kind with None -> cfg | Some mk -> { cfg with merge_kind = mk }
  in
  cfg

let acked = System.Acked Sim.Reliable.default_params

let strong_or_better v = Consistency.Checker.(at_least Strong) v

let unreliable_tests =
  [ case "dropping a view's final list leaves the run stuck but safe"
      (fun () ->
        (* V2 is relevant to all three updates; dropping its third list
           blocks row 3 forever with no subsequent list to expose a gap. *)
        let result = System.run (lossy ~view:"V2" ~nth:3 1) in
        Alcotest.(check bool) "stuck" true result.stuck;
        Alcotest.(check bool) "rows 1,2 committed" true
          (Warehouse.Store.commit_count result.store >= 2);
        Alcotest.(check bool) "channel counted the drop" true
          ((Atomic.get result.metrics.Metrics.msgs_dropped) = 1);
        let v = System.verdict result in
        Alcotest.(check bool) "prefix consistent" true
          (String.equal v.detail "final warehouse state differs from V(ss_f)"));
    case "SPA detects a FIFO gap instead of corrupting the warehouse"
      (fun () ->
        (* Dropping V2's FIRST list while later V2 lists arrive is a gap:
           the hardened SPA raises a protocol error. *)
        Alcotest.(check bool) "protocol error" true
          (match System.run (lossy ~view:"V2" ~nth:1 1) with
          | _ -> false
          | exception Mvc.Vut.Protocol_error msg ->
            (* The message names the gap. *)
            String.length msg > 0));
    case "PA cannot detect the gap; the oracle catches the corruption"
      (fun () ->
        (* Same loss under PA: the later list covers the white entry as if
           it were a legitimate batch, and the run completes with wrong
           contents. *)
        (* In paper-views-q, V2's second list carries the +[2;3;4;6]
           insertion; losing it while the third list still arrives makes
           PA treat the white entry as covered by a batch. *)
        let result =
          System.run
            (lossy ~merge_kind:System.Force_pa
               ~scen:Workload.Scenarios.paper_views_q ~view:"V2" ~nth:2 1)
        in
        Alcotest.(check bool) "not stuck" false result.stuck;
        let v = System.verdict result in
        Alcotest.(check bool) "corruption detected" false v.convergent);
    case "updates on unaffected views still flow before the loss blocks"
      (fun () ->
        let result = System.run (lossy ~view:"V2" ~nth:3 3) in
        Alcotest.(check bool) "some commits happened" true
          (Warehouse.Store.commit_count result.store > 0));
    case "crashed manager without the reliability layer stays dead but safe"
      (fun () ->
        let cfg =
          { (System.default Workload.Scenarios.paper_views) with
            faults =
              [ System.Crash_vm
                  { view = "V2"; at_event = 2; restart_after = 0.1 } ];
            arrival = System.Poisson 60.0;
            seed = 1 }
        in
        let result = System.run cfg in
        Alcotest.(check int) "crashed" 1 (Atomic.get result.metrics.Metrics.crashes);
        Alcotest.(check int) "no recovery" 0 (Atomic.get result.metrics.Metrics.recoveries);
        Alcotest.(check bool) "stuck" true result.stuck;
        let v = System.verdict result in
        Alcotest.(check bool) "nothing wrong was merged" true
          (String.equal v.detail "final warehouse state differs from V(ss_f)"));
    case "no fault, no stuck flag" (fun () ->
        let result =
          System.run (System.default Workload.Scenarios.paper_views)
        in
        Alcotest.(check bool) "clean" false result.stuck) ]

let reliable_tests =
  [ case "the PA-corrupting gap is detected, NACKed, and repaired" (fun () ->
        (* The exact scenario that silently corrupts above, now with the
           ARQ layer: the merge-side receiver sees the sequence gap, nacks
           the missing frame back to V2's manager, the list is resent, and
           the run converges to the correct warehouse. *)
        let result =
          System.run
            { (lossy ~merge_kind:System.Force_pa ~reliability:acked
                 ~scen:Workload.Scenarios.paper_views_q ~view:"V2" ~nth:2 1)
              with
              (* Back-to-back arrivals: the successor frame reaches the
                 merge inside the retransmit timeout, so repair comes from
                 the gap nack, not the timer. *)
              arrival = System.All_at_once }
        in
        Alcotest.(check bool) "not stuck" false result.stuck;
        Alcotest.(check bool) "the drop happened" true
          ((Atomic.get result.metrics.Metrics.msgs_dropped) >= 1);
        Alcotest.(check bool) "gap nacked" true
          ((Atomic.get result.metrics.Metrics.nacks) >= 1);
        Alcotest.(check bool) "list retransmitted" true
          ((Atomic.get result.metrics.Metrics.retransmits) >= 1);
        let v = System.verdict result in
        Alcotest.(check bool) "consistent again" true (strong_or_better v));
    case "a lost final list is repaired by timeout retransmission" (fun () ->
        (* No later frame exposes the gap, so recovery must come from the
           sender's retransmit timer, not a nack. *)
        let result = System.run (lossy ~reliability:acked ~view:"V2" ~nth:3 1) in
        Alcotest.(check bool) "not stuck" false result.stuck;
        Alcotest.(check bool) "retransmitted" true
          ((Atomic.get result.metrics.Metrics.retransmits) >= 1);
        let v = System.verdict result in
        Alcotest.(check bool) "complete" true v.complete);
    case "crashed complete manager resyncs, replays the log, and catches up"
      (fun () ->
        let cfg =
          { (System.default Workload.Scenarios.paper_views) with
            faults =
              [ System.Crash_vm
                  { view = "V2"; at_event = 2; restart_after = 0.1 } ];
            reliability = acked;
            arrival = System.Poisson 60.0;
            seed = 1 }
        in
        let result = System.run cfg in
        Alcotest.(check bool) "not stuck" false result.stuck;
        Alcotest.(check int) "crashed" 1 (Atomic.get result.metrics.Metrics.crashes);
        Alcotest.(check int) "recovered" 1 (Atomic.get result.metrics.Metrics.recoveries);
        let v = System.verdict result in
        Alcotest.(check bool) "complete after recovery" true v.complete);
    case "crashed batching manager recovers under PA" (fun () ->
        let cfg =
          { (System.default Workload.Scenarios.paper_views) with
            vm_kind = System.Batching_vm;
            faults =
              [ System.Crash_vm
                  { view = "V2"; at_event = 1; restart_after = 0.1 } ];
            reliability = acked;
            arrival = System.Poisson 60.0;
            seed = 2 }
        in
        let result = System.run cfg in
        Alcotest.(check bool) "not stuck" false result.stuck;
        Alcotest.(check int) "recovered" 1 (Atomic.get result.metrics.Metrics.recoveries);
        let v = System.verdict result in
        Alcotest.(check bool) "strongly consistent" true (strong_or_better v));
    case "crashed aggregate managers replay their group state" (fun () ->
        (* The Max-over-join rollup loses its manager mid-run; the replay
           rebuilds the plan's cache and Group_by state from the
           integrator log and the resumed manager continues from them. *)
        let scen = Workload.Scenarios.sales_rollup in
        List.iter
          (fun (label, vm_kind, per_txn) ->
            let cfg =
              { (System.default scen) with
                vm_kind;
                faults =
                  [ System.Crash_vm
                      { view = "qty_by_category"; at_event = 2;
                        restart_after = 0.1 } ];
                reliability = acked;
                arrival = System.Poisson 60.0;
                seed = 4 }
            in
            let result = System.run cfg in
            let m = result.metrics in
            Alcotest.(check bool) (label ^ ": not stuck") false result.stuck;
            Alcotest.(check int) (label ^ ": recovered") 1
              (Atomic.get m.Metrics.recoveries);
            let current = Source.Sources.current result.sources in
            List.iter
              (fun v ->
                Alcotest.check Helpers.bag
                  (label ^ ": " ^ Query.View.name v)
                  (Query.Eval.eval_bag ~naive:true current v.Query.View.def)
                  (System.view_contents result (Query.View.name v)))
              scen.Workload.Scenarios.views;
            (* The certificate expects one application per (view,
               transaction) pair, which only per-transaction managers
               produce: a batch legitimately covers several rows with
               one list. For the batching manager the final contents
               above stand in for [no_loss]. *)
            let cert = System.recovery_certificate result in
            Alcotest.(check bool)
              (Format.asprintf "%s: %a" label Consistency.Checker.pp_certificate
                 cert)
              true
              (if per_txn then Consistency.Checker.certified cert
               else cert.no_double_apply && cert.monotonic_serving);
            Alcotest.(check int) (label ^ ": no group state dropped") 0
              (Atomic.get m.Metrics.group_state_drops))
          [ ("Complete_vm", System.Complete_vm, true);
            ("Batching_vm", System.Batching_vm, false);
            ("Selfmaint_vm", System.Selfmaint_vm, true) ]);
    case "crash faults on source-querying managers are rejected" (fun () ->
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument
             "System: Crash_vm faults support Complete_vm, Selfmaint_vm and \
              Batching_vm managers (log-replay recovery)")
          (fun () ->
            ignore
              (System.run
                 { (System.default Workload.Scenarios.paper_views) with
                   vm_kind = System.Strobe_vm;
                   reliability = acked;
                   faults =
                     [ System.Crash_vm
                         { view = "V2"; at_event = 1; restart_after = 0.1 } ]
                 })));
    case "a faultless acked run stays complete and quiet" (fun () ->
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              reliability = acked }
        in
        Alcotest.(check bool) "not stuck" false result.stuck;
        Alcotest.(check int) "no retransmits" 0
          (Atomic.get result.metrics.Metrics.retransmits);
        Alcotest.(check bool) "acks flowed" true
          ((Atomic.get result.metrics.Metrics.acks) > 0);
        let v = System.verdict result in
        Alcotest.(check bool) "complete" true v.complete) ]

(* ---- a warehouse crash inside a coalesced ready run ---- *)

(* The crash's position in the run it hit, read from the timeline:
   [Some (k, n)] when the warehouse crashed receiving WT k of an n-WT
   ready run. *)
let crash_position (r : System.result) =
  List.find_map
    (fun (_, e) ->
      Scanf.sscanf_opt e "warehouse crashed receiving WT %d of a %d-WT run"
        (fun k n -> (k, n)))
    r.System.timeline

let crash_in_run_tests =
  [ case "a warehouse crash inside a coalesced run recovers like its twin"
      (fun () ->
        (* Pinned so the crash lands on the second WT of a two-WT run:
           the first WT was already through the guards when the
           warehouse died, so the whole run is lost and re-derived. *)
        let cfg =
          { (System.default Workload.Scenarios.paper_views) with
            faults =
              [ System.Crash_warehouse { at_event = 3; restart_after = 0.05 } ];
            reliability = acked;
            arrival = System.Poisson 60.0;
            record_timeline = true;
            seed = 4 }
        in
        let crash = System.run cfg in
        let clean = System.run { cfg with faults = [] } in
        (match crash_position crash with
        | Some (k, n) ->
          Alcotest.(check bool)
            (Printf.sprintf "crash hit WT %d of a %d-WT run" k n)
            true
            (n >= 2 && k >= 2)
        | None -> Alcotest.fail "the crash did not land inside a ready run");
        Alcotest.(check bool) "not stuck" false crash.stuck;
        Alcotest.(check bool) "recovered" true
          (Atomic.get crash.metrics.Metrics.recoveries >= 1);
        (* The WTs the run had passed before the crash died with the
           submitter queue: nothing commits while the warehouse is down. *)
        let at prefix =
          List.find_map
            (fun (t, e) ->
              if String.starts_with ~prefix e then Some t else None)
            crash.timeline
        in
        (match (at "warehouse crashed", at "warehouse recovered") with
        | Some down, Some up ->
          Alcotest.(check (list (float 0.0)))
            "no commit while the warehouse is down" []
            (List.filter_map
               (fun (c : Warehouse.Store.commit) ->
                 let t = c.Warehouse.Store.time in
                 if t > down && t < up then Some t else None)
               (Warehouse.Store.commits crash.store))
        | _ -> Alcotest.fail "the timeline lacks the crash or the recovery");
        Alcotest.(check bool) "final state matches the crash-free twin" true
          (Relational.Database.equal
             (Warehouse.Store.snapshot clean.store)
             (Warehouse.Store.snapshot crash.store));
        Alcotest.(check int) "same commit count"
          (Warehouse.Store.commit_count clean.store)
          (Warehouse.Store.commit_count crash.store);
        let cert = System.recovery_certificate crash in
        Alcotest.(check bool)
          (Format.asprintf "recovery certificate: %a"
             Consistency.Checker.pp_certificate cert)
          true
          (Consistency.Checker.certified cert);
        (* Recovery rebuilds the submitted rows from the restored
           commits, so the re-derived run holds no duplicate here; the
           counter must agree with the drops the timeline records. *)
        let drops =
          List.length
            (List.filter
               (fun (_, e) ->
                 String.starts_with ~prefix:"duplicate WT for rows" e)
               crash.timeline)
        in
        match crash.durability with
        | None -> Alcotest.fail "the durable layer should be forced on"
        | Some d ->
          Alcotest.(check int) "dup_wts_dropped counts the dropped WTs" drops
            d.System.dup_wts_dropped) ]

(* ---- the soak: random fault plans x vm kinds x merge kinds ---- *)

(* The soak runs themselves live in [Soak], shared with the @soak-sweep
   alias. The pinned seeds lost a transaction on a restarted process's
   feed: a frame that overtook a dropped one was adopted as the
   receiver's new base, and the dropped frame's retransmission was
   discarded as a duplicate. In the fault soak, a restarted view
   manager then missed an update (PA certified an inconsistent run, SPA
   raised); in the crash soak, a restarted merge missed a REL and
   stalled (2,574 and 2,961) or a manager missed an update (10,401). *)
let pinned_soak_seeds = [ 13_662; 15_662; 23_971; 80_685; 83_231; 705_773 ]

let pinned_crash_soak_seeds = [ 2_574; 2_961; 10_401 ]

let pinned name run seeds =
  List.map
    (fun seed ->
      case (Printf.sprintf "%s seed %d keeps its guarantee" name seed)
        (fun () ->
          match run seed with Ok () -> () | Error msg -> Alcotest.fail msg))
    seeds

let soak_tests =
  Helpers.qcheck ~count:220
    "soak: random fault plans keep acked runs consistent"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      match Soak.run seed with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)
  :: pinned "soak" Soak.run pinned_soak_seeds
  @ pinned "crash soak" Soak.run_crash pinned_crash_soak_seeds

let tests =
  unreliable_tests @ reliable_tests @ crash_in_run_tests @ soak_tests
