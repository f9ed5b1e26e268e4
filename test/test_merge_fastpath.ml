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

(* The elementary reference: each action list applied to its view in
   order, one commit per transaction, without the store. *)
let reference_states run =
  let step db (wt : Warehouse.Wt.t) =
    List.fold_left
      (fun db (al : Action_list.t) ->
        let rel = Database.find db al.view in
        Database.add al.view
          (Relation.with_contents rel
             (Action_list.apply al (Relation.contents rel)))
          db)
      db wt.actions
  in
  let s0 = Warehouse.Store.snapshot (store ()) in
  List.rev
    (List.fold_left (fun acc wt -> step (List.hd acc) wt :: acc) [ s0 ] run)

let sequential_baseline run =
  let s = store () in
  List.iteri (fun i wt -> Warehouse.Store.apply s ~time:(float_of_int i) wt) run;
  Alcotest.(check bool) "apply matches the elementary reference" true
    (states_equal (reference_states run) (Warehouse.Store.states s));
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

(* ---- Delta provenance: versions carry the delta that built them ---- *)

let base_rel = Helpers.rel (Helpers.int_schema [ "x" ]) []

(* [delta_since] is sound: whatever it returns is the exact delta. *)
let carried_ok ~pre post =
  match Relation.delta_since ~pre post with
  | None -> true
  | Some d ->
    Signed_bag.applies_exactly d (Relation.contents pre)
    && Bag.equal
         (Signed_bag.apply d (Relation.contents pre))
         (Relation.contents post)

type run_mode = Per_message | Coalesced | Fused

(* A random warehouse history over views A and B: transactions of one to
   three action lists (deltas that may clamp, now and then a refresh),
   cut into runs committed one transaction at a time, as a planned run,
   or fused into one batched transaction. *)
let history_gen =
  let open QCheck2.Gen in
  let al_gen =
    let* view = oneofl [ "A"; "B" ] in
    frequency
      [ (6, map (fun d -> Action_list.delta ~view ~state:0 d)
              (Helpers.Gen.small_signed ~arity:1 ~range:4));
        (1, map (fun b -> Action_list.refresh ~view ~state:0 b)
              (Helpers.Gen.small_bag ~arity:1 ~range:4)) ]
  in
  let wt_gen = map (Warehouse.Wt.make ~rows:[ 0 ]) (list_size (int_range 1 3) al_gen) in
  list_size (int_range 1 6)
    (pair (oneofl [ Per_message; Coalesced; Fused ]) (list_size (int_range 1 4) wt_gen))

let commit_history runs =
  let s = store () in
  List.iter
    (fun (mode, wts) ->
      match mode with
      | Per_message -> List.iter (fun wt -> Warehouse.Store.apply s wt) wts
      | Coalesced -> ignore (Warehouse.Store.commit_run s wts)
      | Fused -> ignore (Warehouse.Store.commit_run s [ Warehouse.Wt.batch wts ]))
    runs;
  s

let provenance_tests =
  [ Helpers.qcheck ~count:300 "apply_delta carries exactly the deltas that apply"
      QCheck2.Gen.(
        pair (Helpers.Gen.small_bag ~arity:1 ~range:4)
          (pair (Helpers.Gen.small_signed ~arity:1 ~range:4)
             (Helpers.Gen.small_signed ~arity:1 ~range:4)))
      (fun (bag, (d1, d2)) ->
        let pre = Relation.with_contents base_rel bag in
        let post = Relation.apply_delta d1 pre in
        (* An unchanged bag (a zero delta, or deletions that all clamp
           on an empty relation) is the zero delta whatever built it. *)
        let unchanged r = Relation.contents r == bag in
        let expected =
          if unchanged post then Some Signed_bag.zero
          else if Signed_bag.applies_exactly d1 bag then Some d1
          else None
        in
        let two_steps = Relation.apply_delta d2 post in
        Option.equal Signed_bag.equal (Relation.delta_since ~pre post) expected
        && carried_ok ~pre post
        && Option.equal Signed_bag.equal (Relation.delta_since ~pre pre)
             (Some Signed_bag.zero)
        (* A copy built by [with_contents] carries nothing, and neither
           does a version two steps away or one over an unrelated record
           with equal contents. *)
        && (unchanged post
           || Relation.delta_since ~pre
                (Relation.with_contents base_rel (Relation.contents post))
              = None)
        && (unchanged post || unchanged two_steps || two_steps == post
           || Relation.delta_since ~pre two_steps = None)
        && (unchanged post || Bag.is_empty bag
           || Relation.delta_since
                ~pre:(Relation.with_contents base_rel (Bag.of_list (Bag.to_list bag)))
                post
              = None));
    case "a clamping delta carries nothing" (fun () ->
        let pre = Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ] ] in
        let post = Relation.apply_delta (Signed_bag.singleton (ints [ 2 ]) (-1)) pre in
        Alcotest.(check bool) "None" true (Relation.delta_since ~pre post = None));
    Helpers.qcheck ~count:300 "every exact store version carries its net delta"
      history_gen
      (fun runs ->
        let s = commit_history runs in
        let wts = List.map (fun c -> c.Warehouse.Store.transaction) (Warehouse.Store.commits s) in
        let states = Warehouse.Store.states s in
        states_equal (reference_states wts) states
        && List.for_all2
             (fun (pre_db, post_db) (wt : Warehouse.Wt.t) ->
               List.for_all
                 (fun view ->
                   let pre = Database.find pre_db view
                   and post = Database.find post_db view in
                   let als =
                     List.filter (fun (al : Action_list.t) -> al.view = view) wt.actions
                   in
                   let deltas =
                     List.filter_map
                       (fun (al : Action_list.t) ->
                         match al.payload with
                         | Action_list.Delta d -> Some d
                         | Action_list.Refresh _ -> None)
                       als
                   in
                   let exact =
                     List.length deltas = List.length als
                     && Signed_bag.first_clamp deltas ~bag:(Relation.contents pre) = None
                   in
                   carried_ok ~pre post
                   && ((not exact)
                      || Option.equal Signed_bag.equal
                           (Relation.delta_since ~pre post)
                           (Some
                              (Signed_bag.diff_of_bags ~before:(Relation.contents pre)
                                 ~after:(Relation.contents post)))))
                 [ "A"; "B" ])
             (List.combine
                (List.filteri (fun i _ -> i < List.length wts) states)
                (List.tl states))
             wts) ]

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
          Alcotest.(check int) "one table row per tuple" 3 o.Bag_index.rows;
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
  coalesce_tests @ vut_tests @ store_tests @ provenance_tests @ submitter_tests
  @ wal_tests
  @ index_tests @ metrics_tests @ system_tests @ fused_tests
