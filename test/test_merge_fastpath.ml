(* Merge fast path: coalesced batch application must be invisible — the
   summed per-view deltas, the planned run, and the system-level
   [Coalesced] policy all have to reproduce the per-row baseline exactly
   (same store version sequence, same served reads) — and the fused
   certificate must catch a tampered coalesced sum. *)

open Relational
open Query

let case = Helpers.case

let al ?(delta = Signed_bag.zero) view state = Action_list.delta ~view ~state delta

let plus view state tuple =
  Action_list.delta ~view ~state (Signed_bag.singleton tuple 1)

let ints = Helpers.ints

let store () =
  Warehouse.Store.create
    [ ("A", Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ] ]);
      ("B", Helpers.rel (Helpers.int_schema [ "y" ]) []) ]

(* ---- Signed_bag.coalesce: the sum is only offered when faithful ---- *)

let coalesce_tests =
  [ case "coalesce of nothing is zero" (fun () ->
        Alcotest.(check (option Helpers.signed_bag))
          "zero"
          (Some Signed_bag.zero)
          (Signed_bag.coalesce [] ~bag:(Helpers.bag_of [ [ 1 ] ])));
    case "a singleton coalesces to itself" (fun () ->
        let d = Signed_bag.of_list [ (ints [ 1 ], -2); (ints [ 2 ], 1) ] in
        Alcotest.(check (option Helpers.signed_bag))
          "itself" (Some d)
          (Signed_bag.coalesce [ d ] ~bag:(Helpers.bag_of [ [ 1 ]; [ 1 ] ])));
    case "safe deltas sum and match sequential application" (fun () ->
        let bag = Helpers.bag_of [ [ 1 ]; [ 1 ] ] in
        let deltas =
          [ Signed_bag.singleton (ints [ 1 ]) (-1);
            Signed_bag.singleton (ints [ 1 ]) (-1);
            Signed_bag.singleton (ints [ 1 ]) 1 ]
        in
        match Signed_bag.coalesce deltas ~bag with
        | None -> Alcotest.fail "expected a coalesced sum"
        | Some sum ->
          Alcotest.check Helpers.signed_bag "sum"
            (Signed_bag.singleton (ints [ 1 ]) (-1))
            sum;
          Alcotest.check Helpers.bag "faithful"
            (List.fold_left (fun b d -> Signed_bag.apply d b) bag deltas)
            (Signed_bag.apply sum bag));
    case "the clamp counterexample is refused" (fun () ->
        (* Deleting an absent tuple floors at zero, so [-1; +2] leaves 2
           when applied one by one but the sum (+1) would leave 1. The
           guard must refuse rather than hand back an unfaithful sum. *)
        let bag = Bag.empty in
        let deltas =
          [ Signed_bag.singleton (ints [ 9 ]) (-1);
            Signed_bag.singleton (ints [ 9 ]) 2 ]
        in
        let sequential =
          List.fold_left (fun b d -> Signed_bag.apply d b) bag deltas
        in
        Alcotest.(check int) "sequential keeps 2" 2 (Bag.count sequential (ints [ 9 ]));
        Alcotest.(check (option Helpers.signed_bag))
          "refused" None
          (Signed_bag.coalesce deltas ~bag));
    Helpers.qcheck ~count:300 "coalesce: Some sum is always faithful"
      QCheck2.Gen.(
        pair
          (Helpers.Gen.small_bag ~arity:1 ~range:3)
          (list_size (int_range 0 5) (Helpers.Gen.small_signed ~arity:1 ~range:3)))
      (fun (bag, deltas) ->
        match Signed_bag.coalesce deltas ~bag with
        | None -> true (* refusing is always allowed *)
        | Some sum ->
          Bag.equal
            (List.fold_left (fun b d -> Signed_bag.apply d b) bag deltas)
            (Signed_bag.apply sum bag));
    Helpers.qcheck ~count:300 "first_clamp: None iff every step applies exactly"
      QCheck2.Gen.(
        pair
          (Helpers.Gen.small_bag ~arity:1 ~range:3)
          (list_size (int_range 0 5) (Helpers.Gen.small_signed ~arity:1 ~range:3)))
      (fun (bag, deltas) ->
        let exact, _ =
          List.fold_left
            (fun (ok, b) d ->
              (ok && Signed_bag.applies_exactly d b, Signed_bag.apply d b))
            (true, bag) deltas
        in
        match Signed_bag.first_clamp deltas ~bag with
        | None -> exact
        | Some tup ->
          (not exact)
          && List.exists (fun d -> Signed_bag.count d tup < 0) deltas) ]

(* ---- Vut incremental row counters ---- *)

let vut_views = [ "V1"; "V2"; "V3" ]

let vut_tests =
  [ Helpers.qcheck ~count:200 "white/red counters match a column scan"
      QCheck2.Gen.(
        list_size (int_range 0 5)
          (pair
             (list_size (return 3) bool)
             (list_size (int_range 0 6)
                (pair (int_range 0 2)
                   (oneofl [ Mvc.Vut.White; Mvc.Vut.Red; Mvc.Vut.Gray; Mvc.Vut.Black ])))))
      (fun rows ->
        let vut = Mvc.Vut.create ~views:vut_views in
        List.iteri
          (fun i (members, recolors) ->
            let row = i + 1 in
            let rel =
              List.filteri (fun j _ -> List.nth members j) vut_views
            in
            Mvc.Vut.add_row vut ~row ~rel;
            List.iter
              (fun (vi, color) ->
                Mvc.Vut.set_color vut ~row ~view:(List.nth vut_views vi) color)
              recolors)
          rows;
        List.for_all
          (fun row ->
            let scan color =
              List.length
                (List.filter
                   (fun view ->
                     (Mvc.Vut.entry vut ~row ~view).Mvc.Vut.color = color)
                   vut_views)
            in
            Mvc.Vut.white_count vut ~row = scan Mvc.Vut.White
            && Mvc.Vut.red_count vut ~row = scan Mvc.Vut.Red)
          (Mvc.Vut.rows vut)) ]

(* ---- Store.plan_run / commit_run vs one-at-a-time apply ---- *)

let sample_run =
  [ Warehouse.Wt.make ~rows:[ 1 ]
      [ plus "A" 1 (ints [ 2 ]); plus "B" 1 (ints [ 7 ]) ];
    Warehouse.Wt.make ~rows:[ 2 ]
      [ al ~delta:(Signed_bag.of_list [ (ints [ 1 ], -1); (ints [ 3 ], 1) ]) "A" 2 ];
    Warehouse.Wt.make ~rows:[ 3 ] [ plus "A" 3 (ints [ 2 ]) ] ]

(* Two action lists on the same view where the first would clamp: the
   per-(transaction, view) sum is unfaithful, so the planner must fall
   back to list-by-list application for that group. *)
let clamping_run =
  [ Warehouse.Wt.make ~rows:[ 1 ]
      [ al ~delta:(Signed_bag.singleton (ints [ 9 ]) (-1)) "A" 1;
        al ~delta:(Signed_bag.singleton (ints [ 9 ]) 2) "A" 1 ];
    Warehouse.Wt.make ~rows:[ 2 ] [ plus "B" 2 (ints [ 4 ]) ] ]

let states_equal a b =
  List.length a = List.length b && List.for_all2 Database.equal a b

let commit_rows s =
  List.map
    (fun c -> c.Warehouse.Store.transaction.Warehouse.Wt.rows)
    (Warehouse.Store.commits s)

let sequential_baseline run =
  let s = store () in
  List.iteri (fun i wt -> Warehouse.Store.apply s ~time:(float_of_int i) wt) run;
  s

let store_tests =
  [ case "commit_run records the states apply would have" (fun () ->
        let seq = sequential_baseline sample_run in
        let s = store () in
        let plan = Warehouse.Store.commit_run s ~time:5.0 sample_run in
        Alcotest.(check bool) "states" true
          (states_equal (Warehouse.Store.states seq) (Warehouse.Store.states s));
        Alcotest.(check (list (list int)))
          "commit rows" (commit_rows seq) (commit_rows s);
        Alcotest.(check bool) "summing cancelled nothing here" true
          (plan.Warehouse.Store.coalesced_out <= plan.Warehouse.Store.coalesced_in);
        Alcotest.(check int) "no fallbacks" 0 plan.Warehouse.Store.seq_fallbacks);
    case "plan_run + apply_planned preserves per-item commit times" (fun () ->
        let seq = sequential_baseline sample_run in
        let s = store () in
        let plan = Warehouse.Store.plan_run s sample_run in
        List.iteri
          (fun i (wt, db) ->
            Warehouse.Store.apply_planned s ~time:(float_of_int i) wt db)
          plan.Warehouse.Store.planned;
        Alcotest.(check bool) "states" true
          (states_equal (Warehouse.Store.states seq) (Warehouse.Store.states s));
        Alcotest.(check (list (float 1e-9)))
          "times"
          (List.map (fun c -> c.Warehouse.Store.time) (Warehouse.Store.commits seq))
          (List.map (fun c -> c.Warehouse.Store.time) (Warehouse.Store.commits s)));
    case "clamping group falls back and still matches apply" (fun () ->
        let seq = sequential_baseline clamping_run in
        let s = store () in
        let plan = Warehouse.Store.commit_run s ~time:2.0 clamping_run in
        Alcotest.(check bool) "states" true
          (states_equal (Warehouse.Store.states seq) (Warehouse.Store.states s));
        Alcotest.(check bool) "fallback counted" true
          (plan.Warehouse.Store.seq_fallbacks >= 1));
    case "run_tasks receives the independent per-view walks" (fun () ->
        let seq = sequential_baseline sample_run in
        let s = store () in
        let fanned = ref 0 in
        let plan =
          Warehouse.Store.plan_run s sample_run
            ~run_tasks:(fun tasks ->
              fanned := List.length tasks;
              List.iter (fun task -> task ()) tasks)
        in
        List.iteri
          (fun i (wt, db) ->
            Warehouse.Store.apply_planned s ~time:(float_of_int i) wt db)
          plan.Warehouse.Store.planned;
        Alcotest.(check bool) "walk per touched view" true (!fanned >= 2);
        Alcotest.(check bool) "states" true
          (states_equal (Warehouse.Store.states seq) (Warehouse.Store.states s))) ]

(* ---- Submitter.submit_run: same schedule as item-by-item submit ---- *)

let submitter_setup ?on_plan () =
  let engine = Sim.Engine.create () in
  let s = store () in
  let committed = ref [] in
  let sub =
    Warehouse.Submitter.create engine ~policy:Warehouse.Submitter.Serial
      ~commit_latency:(fun () -> 1.0)
      ~store:s ?on_plan
      ~on_commit:(fun wt ->
        committed := (Sim.Engine.now engine, wt.Warehouse.Wt.rows) :: !committed)
      ()
  in
  (engine, s, sub, committed)

let submitter_tests =
  [ case "submit_run commits exactly like per-item submit" (fun () ->
        let engine1, s1, sub1, committed1 = submitter_setup () in
        List.iter (Warehouse.Submitter.submit sub1) sample_run;
        Sim.Engine.run engine1;
        let plans = ref 0 in
        let engine2, s2, sub2, committed2 =
          submitter_setup ~on_plan:(fun _ -> incr plans) ()
        in
        Warehouse.Submitter.submit_run sub2 sample_run;
        Sim.Engine.run engine2;
        Alcotest.(check (list (pair (float 1e-9) (list int))))
          "commit log" (List.rev !committed1) (List.rev !committed2);
        Alcotest.(check bool) "states" true
          (states_equal (Warehouse.Store.states s1) (Warehouse.Store.states s2));
        Alcotest.(check int) "planned once" 1 !plans);
    case "on_plan sees the coalescing counters" (fun () ->
        let seen = ref None in
        let engine, _, sub, _ =
          submitter_setup ~on_plan:(fun p -> seen := Some p) ()
        in
        Warehouse.Submitter.submit_run sub clamping_run;
        Sim.Engine.run engine;
        match !seen with
        | None -> Alcotest.fail "on_plan never fired"
        | Some p ->
          Alcotest.(check bool) "out <= in" true
            (p.Warehouse.Store.coalesced_out <= p.Warehouse.Store.coalesced_in);
          Alcotest.(check bool) "clamp fallback surfaced" true
            (p.Warehouse.Store.seq_fallbacks >= 1)) ]

(* ---- Wal.append_group: one durable frame per applied run ---- *)

let wal_tests =
  [ case "append_group syncs once for the whole run" (fun () ->
        let w : (int list, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:100 ()
        in
        Durable.Wal.append_group w [ 1; 2; 3 ];
        Alcotest.(check int) "one sync" 1 (Durable.Wal.stats w).Durable.Disk.syncs;
        let _, tail = Durable.Wal.recover w in
        Alcotest.(check (list int)) "all durable" [ 1; 2; 3 ] tail);
    case "an empty group neither appends nor syncs" (fun () ->
        let w : (int list, int) Durable.Wal.t =
          Durable.Wal.create ~group_commit:100 ()
        in
        Durable.Wal.append_group w [];
        Alcotest.(check int) "no sync" 0 (Durable.Wal.stats w).Durable.Disk.syncs;
        let _, tail = Durable.Wal.recover w in
        Alcotest.(check (list int)) "nothing" [] tail) ]

(* ---- Relation.index_stats ---- *)

let index_tests =
  [ case "index_stats reflects the memoized index population" (fun () ->
        let r =
          Helpers.rel (Helpers.int_schema [ "x"; "y" ]) [ [ 1; 1 ]; [ 2; 1 ]; [ 3; 2 ] ]
        in
        Alcotest.(check int) "no index yet" 0 (List.length (Relation.index_stats r));
        let _ = Relation.index r ~key_pos:[| 0 |] in
        match Relation.index_stats r with
        | [ o ] ->
          Alcotest.(check int) "live" 3 o.Bag_index.live;
          Alcotest.(check int) "no tombstones" 0 o.Bag_index.tombstones;
          Alcotest.(check bool) "slots cover live" true (o.Bag_index.slots >= o.Bag_index.live)
        | stats ->
          Alcotest.failf "expected one index, saw %d" (List.length stats)) ]

(* ---- Metrics.coalesce_cancel_ratio ---- *)

let metrics_tests =
  [ case "cancel ratio is (in - out) / in, zero when idle" (fun () ->
        let m = Whips.Metrics.create () in
        Alcotest.(check (float 1e-9)) "idle" 0.0
          (Whips.Metrics.coalesce_cancel_ratio m);
        Atomic.set m.Whips.Metrics.coalesced_in 8;
        Atomic.set m.Whips.Metrics.coalesced_out 6;
        Alcotest.(check (float 1e-9)) "quarter" 0.25
          (Whips.Metrics.coalesce_cancel_ratio m)) ]

(* ---- System law: Coalesced == Per_message, end to end ---- *)

let gen_scenario seed =
  Workload.Generator.generate
    { Workload.Generator.default with
      seed;
      n_relations = 3;
      n_views = 2;
      n_transactions = 8;
      initial_tuples = 4 }

let sys_run ~batch ~domains scen =
  Whips.System.run
    { (Whips.System.default scen) with
      merge_batch = batch;
      arrival = Whips.System.Uniform 0.02;
      reads = Some Whips.System.default_reads;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      seed = 9 }

let signature (r : Whips.System.result) =
  ( Atomic.get r.Whips.System.metrics.Whips.Metrics.commits,
    Atomic.get r.Whips.System.metrics.Whips.Metrics.actions_applied,
    r.Whips.System.metrics.Whips.Metrics.completed_at,
    List.map
      (fun v -> Whips.System.view_contents r (Query.View.name v))
      r.Whips.System.config.Whips.System.scenario.Workload.Scenarios.views )

let signatures_equal (c1, a1, t1, v1) (c2, a2, t2, v2) =
  c1 = c2 && a1 = a2 && t1 = t2
  && List.length v1 = List.length v2
  && List.for_all2 Bag.equal v1 v2

let read_signature (r : Whips.System.result) =
  match r.Whips.System.serving with
  | None -> []
  | Some s ->
    List.map
      (fun rd ->
        ( rd.Whips.System.read_session,
          rd.Whips.System.read_version,
          rd.Whips.System.read_served,
          Bag.to_list rd.Whips.System.read_result ))
      s.Whips.System.reads_served

let system_tests =
  [ Helpers.qcheck ~count:5
      "coalesced run == per-row run (states, trace, reads; columnar x domains)"
      (QCheck2.Gen.int_range 0 999)
      (fun seed ->
        let scen = gen_scenario seed in
        List.for_all
          (fun columnar ->
            Helpers.with_columnar columnar (fun () ->
                List.for_all
                  (fun domains ->
                    let on = sys_run ~batch:Whips.System.Coalesced ~domains scen
                    and off =
                      sys_run ~batch:Whips.System.Per_message ~domains scen
                    in
                    signatures_equal (signature on) (signature off)
                    && states_equal
                         (Warehouse.Store.states on.Whips.System.store)
                         (Warehouse.Store.states off.Whips.System.store)
                    && read_signature on = read_signature off
                    && Whips.System.verdict on = Whips.System.verdict off)
                  [ 1; 4 ]))
          [ false; true ]) ]

(* ---- Fused certificate: catches a tampered coalesced sum ---- *)

let fused_tests =
  [ case "certify_fused accepts a faithful batch, rejects a tampered sum"
      (fun () ->
        let a = plus "A" 1 (ints [ 2 ]) and b = plus "A" 2 (ints [ 3 ]) in
        let s = store () in
        let pre = Warehouse.Store.initial s in
        Warehouse.Store.apply s ~time:1.0
          (Warehouse.Wt.make ~rows:[ 1; 2 ] [ a; b ]);
        let post =
          match List.rev (Warehouse.Store.states s) with
          | latest :: _ -> latest
          | [] -> Alcotest.fail "no states"
        in
        let batch =
          { Consistency.Checker.fb_parts = [ ([ 1 ], [ a ]); ([ 2 ], [ b ]) ];
            fb_rows = [ 1; 2 ];
            fb_actions = [ a; b ];
            fb_pre = pre;
            fb_post = post }
        in
        let ok =
          Consistency.Checker.certify_fused
            ~emitted:[ [ 1 ]; [ 2 ] ]
            ~batches:[ batch ]
        in
        Alcotest.(check bool) "faithful batch certifies" true
          (Consistency.Checker.certified_fused ok);
        (* Tampered sum: the recorded post-state pretends the batch
           changed nothing — replaying the parts exposes it. *)
        let tampered =
          Consistency.Checker.certify_fused
            ~emitted:[ [ 1 ]; [ 2 ] ]
            ~batches:[ { batch with Consistency.Checker.fb_post = pre } ]
        in
        Alcotest.(check bool) "exactness broken" false
          tampered.Consistency.Checker.fused_exact;
        Alcotest.(check bool) "coverage untouched" true
          tampered.Consistency.Checker.fused_coverage;
        Alcotest.(check bool) "rejected" false
          (Consistency.Checker.certified_fused tampered));
    case "a fused system run certifies; tampering its parts breaks it"
      (fun () ->
        let scen = gen_scenario 31 in
        let r =
          Whips.System.run
            { (Whips.System.default scen) with
              merge_batch = Whips.System.Fused;
              arrival = Whips.System.Uniform 0.02;
              seed = 9 }
        in
        let cert = Whips.System.fused_certificate r in
        Alcotest.(check bool) "certified" true
          (Consistency.Checker.certified_fused cert);
        match r.Whips.System.fused with
        | None -> Alcotest.fail "fused run recorded no batches"
        | Some (emitted, parts) ->
          (* Drop the action lists of the first part of the first batch:
             the claimed coalesced content no longer matches what was
             committed. *)
          let tampered_parts =
            match parts with
            | ((rows, _ :: _) :: rest_parts) :: rest ->
              ((rows, []) :: rest_parts) :: rest
            | _ -> Alcotest.fail "expected a non-empty first batch"
          in
          let cert' =
            Whips.System.fused_certificate
              { r with Whips.System.fused = Some (emitted, tampered_parts) }
          in
          Alcotest.(check bool) "tampering detected" false
            (Consistency.Checker.certified_fused cert'));
    case "fused_certificate rejects non-fused runs" (fun () ->
        let r = sys_run ~batch:Whips.System.Coalesced ~domains:1 (gen_scenario 31) in
        Alcotest.(check bool) "invalid_arg" true
          (match Whips.System.fused_certificate r with
          | exception Invalid_argument _ -> true
          | _ -> false)) ]

let tests =
  coalesce_tests @ vut_tests @ store_tests @ submitter_tests @ wal_tests
  @ index_tests @ metrics_tests @ system_tests @ fused_tests
