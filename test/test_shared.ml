(* Shared subplans (Selfmaint.Plan slots). Four layers of evidence:

   - Canon: the normal form is schema- and semantics-preserving (qcheck
     against the naive evaluator), idempotent, and actually unifies what
     it promises — commuted joins, reordered conjuncts and the
     optimizer's selection pushdown all intern to physically shared
     subterms;
   - the slot oracle: over random databases, view sets with forced
     subplan overlap (a shared join, and a shared [Group_by] over it)
     and random transaction chains, per-view deltas of shared plans
     stepped per transaction, and in the txn-major rotated and
     view-major laggard demand orders, equal independent per-view
     [Query.Delta.eval] runs of the naive reference rules, and applying
     them step by step reproduces the naive recompute of every view;
   - pinned traces: full-system runs of the paper scenarios and of the
     sales rollup are byte-identical with sharing on and off, on both
     runtimes, and the configurations slots do not serve are refused. *)

open Relational

let case = Helpers.case

let schemas r =
  Helpers.Delta_domain.schema_of
    (int_of_string (String.sub r 1 (String.length r - 1)))

let canon = Query.Canon.canonical ~schemas

let normalize = Query.Canon.normalize ~schemas

let rel k = Query.Algebra.base (Printf.sprintf "R%d" k)

(* ---- the canonical normal form ---- *)

let core_of = function
  | Query.Algebra.Project (_, inner) -> inner
  | e -> e

let canon_tests =
  [ case "commuted joins intern to one physical core" (fun () ->
        let a = canon (Query.Algebra.join (rel 0) (rel 1)) in
        let b = canon (Query.Algebra.join (rel 1) (rel 0)) in
        (match b with
        | Query.Algebra.Project (names, _) ->
          Alcotest.(check (list string))
            "bridging permutation keeps the commuted order"
            [ "a1"; "a2"; "a0" ] names
        | _ -> Alcotest.fail "expected a bridging permutation Project");
        Alcotest.(check bool) "one shared core" true (core_of b == a));
    case "pushed selections and commuted operands unify" (fun () ->
        (* sel_p(R0) |><| R1 (the optimizer's pushed form) and
           sel_p(R1 |><| R0) (the written form, commuted) are the same
           computation; both must canonicalize onto one physical
           Select-over-Join core. *)
        let p = Query.Pred.le "a0" (Value.Int 2) in
        let a =
          canon (Query.Algebra.join (Query.Algebra.select p (rel 0)) (rel 1))
        in
        let b =
          canon (Query.Algebra.select p (Query.Algebra.join (rel 1) (rel 0)))
        in
        Alcotest.(check bool) "one shared core" true (core_of b == a));
    case "the optimizer's selection pushdown cancels out" (fun () ->
        let e =
          Query.Algebra.select
            (Query.Pred.le "a0" (Value.Int 2))
            (Query.Algebra.join (rel 0) (rel 1))
        in
        let opt = Query.Optimize.optimize ~schemas e in
        Alcotest.(check bool) "the optimizer rewrote" true (opt <> e);
        Alcotest.(check bool) "same canonical form" true (canon opt == canon e));
    case "reordered conjuncts unify" (fun () ->
        let p = Query.Pred.le "a0" (Value.Int 2)
        and q = Query.Pred.le "a1" (Value.Int 3) in
        let sel pr = Query.Algebra.select pr (Query.Algebra.join (rel 0) (rel 1)) in
        Alcotest.(check bool) "And is order-insensitive" true
          (canon (sel (Query.Pred.And (p, q)))
          == canon (sel (Query.Pred.And (q, p)))));
    Helpers.qcheck ~count:300
      "normalize preserves schema and semantics; idempotent"
      QCheck2.Gen.(
        pair Helpers.Delta_domain.expr_gen Helpers.Delta_domain.db_gen)
      (fun (e, db) ->
        let n = normalize e in
        Schema.equal
          (Query.Algebra.schema_of schemas e)
          (Query.Algebra.schema_of schemas n)
        && Bag.equal
             (Query.Eval.eval_bag ~naive:true db e)
             (Query.Eval.eval_bag ~naive:true db n)
        && normalize n = n) ]

(* ---- the slot oracle (qcheck) ---- *)

(* Seven views: two arbitrary expressions, a trio built around one
   join — selected, selected-and-commuted, and raw — and a pair reading
   one aggregate over that join, so every generated case has forced
   subplan overlap (the trio's canonical forms meet on Join(R0, R1), and
   the pair on the Group_by above it: a slot that keeps group state and
   reads another slot). *)
let view_set_gen =
  QCheck2.Gen.(
    let pred_on ks =
      map2
        (fun k v -> Query.Pred.le (Printf.sprintf "a%d" k) (Value.Int v))
        (oneofl ks) (int_range 0 3)
    in
    Helpers.Delta_domain.expr_gen >>= fun e1 ->
    Helpers.Delta_domain.expr_gen >>= fun e2 ->
    pred_on [ 0; 1; 2 ] >>= fun p ->
    pred_on [ 0; 1; 2 ] >>= fun q ->
    int_range 0 3 >>= fun n ->
    let rollup =
      Query.Algebra.group_by ~keys:[ "a1" ]
        ~aggregates:
          [ ("n", Query.Algebra.Count); ("s", Query.Algebra.Sum "a2");
            ("m", Query.Algebra.Max "a0") ]
        (Query.Algebra.join (rel 0) (rel 1))
    in
    return
      [ e1;
        e2;
        Query.Algebra.select p (Query.Algebra.join (rel 0) (rel 1));
        Query.Algebra.select q (Query.Algebra.join (rel 1) (rel 0));
        Query.Algebra.join (rel 0) (rel 1);
        rollup;
        Query.Algebra.select (Query.Pred.le "n" (Value.Int n)) rollup ])

(* A chain of transactions with strictly increasing ids whose deletes and
   modifies always target live tuples (threading the evolving db, like
   [Delta_domain.changes_gen] does within one transaction). *)
let txns_gen db =
  QCheck2.Gen.(
    int_range 1 4 >>= fun n ->
    let rec go db i acc =
      if i > n then return (List.rev acc)
      else
        Helpers.Delta_domain.changes_gen db >>= fun updates ->
        let txn = Update.Transaction.make ~id:i ~source:"s0" updates in
        go (Database.apply_transaction db txn) (i + 1) (txn :: acc)
    in
    go db 1 [])

let scenario_gen =
  QCheck2.Gen.(
    Helpers.Delta_domain.db_gen >>= fun db ->
    view_set_gen >>= fun defs ->
    txns_gen db >>= fun txns -> return (db, defs, txns))

let make_views defs =
  List.mapi (fun i d -> Query.View.make (Printf.sprintf "V%d" i) d) defs

let naive_delta ~pre txn (v : Query.View.t) =
  Query.Delta.eval ~naive:true ~pre
    (Query.Delta.of_transaction txn)
    v.Query.View.def

let shared_plans db views =
  let plans, slots =
    Selfmaint.Plan.share
      (List.map (fun v -> Selfmaint.Plan.replica ~initial:db v) views)
  in
  (Array.of_list plans, slots)

(* Per transaction, every view steps its shared plan over its own cache
   (advanced by the plan), threading its group state; each delta is
   checked against independent naive per-view deltas, and the
   maintained contents against the naive recompute at the end of the
   chain. *)
let check_per_txn (db, defs, txns) =
  let views = make_views defs in
  let plans, slots = shared_plans db views in
  let ok = ref ((Selfmaint.Plan.slot_stats slots).Selfmaint.Plan.slots >= 2) in
  let caches = Array.map Selfmaint.Plan.initial_cache plans in
  let groups = Array.map (fun _ -> Query.Compiled.no_groups) plans in
  let cur = ref db in
  let mat =
    Array.of_list
      (List.map
         (fun (v : Query.View.t) ->
           Query.Eval.eval_bag ~naive:true db v.Query.View.def)
         views)
  in
  List.iter
    (fun (txn : Update.Transaction.t) ->
      List.iteri
        (fun i (v : Query.View.t) ->
          let plan = plans.(i) in
          let changes =
            Selfmaint.Plan.project plan (Query.Delta.of_transaction txn)
          in
          let d, g =
            Selfmaint.Plan.step ~txn:txn.Update.Transaction.id plan
              ~pre:caches.(i) ~groups:groups.(i) changes
          in
          groups.(i) <- g;
          caches.(i) <- Selfmaint.Plan.advance plan caches.(i) changes;
          if not (Signed_bag.equal d (naive_delta ~pre:!cur txn v)) then
            ok := false;
          mat.(i) <- Signed_bag.apply d mat.(i))
        views;
      cur := Database.apply_transaction !cur txn)
    txns;
  List.iteri
    (fun i (v : Query.View.t) ->
      if
        not
          (Bag.equal mat.(i)
             (Query.Eval.eval_bag ~naive:true !cur v.Query.View.def))
      then ok := false)
    views;
  !ok

(* The pipelined runtime's demand order is free across views, under the
   two adversarial extremes — txn-major with a rotated view order (so
   every view is sometimes the miss that computes a slot and sometimes a
   memo hit) and view-major (one view drains the whole chain before the
   next starts, so slots keep old versions and memo entries for the
   laggards). Each view steps only the transactions relevant to it, as
   the integrator routes them. *)
let check_demand_orders (db, defs, txns) =
  let views = make_views defs in
  let states = Array.make (List.length txns + 1) db in
  List.iteri
    (fun i txn -> states.(i + 1) <- Database.apply_transaction states.(i) txn)
    txns;
  let ok = ref true in
  let demand (plans, groups) i (txn : Update.Transaction.t) j =
    let v = List.nth views j in
    if
      List.exists (Query.View.uses v) (Update.Transaction.relations txn)
    then begin
      let d, g =
        Selfmaint.Plan.step ~txn:txn.Update.Transaction.id plans.(j)
          ~pre:states.(i) ~groups:groups.(j)
          (Selfmaint.Plan.project plans.(j) (Query.Delta.of_transaction txn))
      in
      groups.(j) <- g;
      if not (Signed_bag.equal d (naive_delta ~pre:states.(i) txn v)) then
        ok := false
    end
  in
  let fresh () =
    let plans, _ = shared_plans db views in
    (plans, Array.map (fun _ -> Query.Compiled.no_groups) plans)
  in
  let n = List.length views in
  let rotated = fresh () in
  List.iteri
    (fun i txn ->
      for j = 0 to n - 1 do
        demand rotated i txn ((i + j) mod n)
      done)
    txns;
  let laggard = fresh () in
  for j = 0 to n - 1 do
    List.iteri (fun i txn -> demand laggard i txn j) txns
  done;
  !ok

let oracle_tests =
  [ Helpers.qcheck ~count:500
      "per-transaction slot deltas == independent naive per-view deltas"
      scenario_gen check_per_txn;
    Helpers.qcheck ~count:150
      "slot deltas match the oracle in adversarial demand orders"
      scenario_gen check_demand_orders;
    case "one miss then memo hits per (node, transaction)" (fun () ->
        let db =
          Database.of_list
            [ ("R0", Helpers.rel (schemas "R0") [ [ 0; 1 ]; [ 1; 2 ] ]);
              ("R1", Helpers.rel (schemas "R1") [ [ 1; 5 ]; [ 2; 6 ] ]);
              ("R2", Helpers.rel (schemas "R2") [ [ 5; 0 ] ]) ]
        in
        let j = Query.Algebra.join (rel 0) (rel 1) in
        let views =
          make_views
            [ Query.Algebra.select (Query.Pred.le "a0" (Value.Int 3)) j;
              Query.Algebra.select
                (Query.Pred.le "a2" (Value.Int 9))
                (Query.Algebra.join (rel 1) (rel 0));
              j ]
        in
        let plans, slots = shared_plans db views in
        Alcotest.(check int) "one slot" 1
          (Selfmaint.Plan.slot_stats slots).Selfmaint.Plan.slots;
        let txn =
          Update.Transaction.make ~id:1 ~source:"s0"
            [ Update.insert "R0" (Tuple.ints [ 1; 1 ]) ]
        in
        List.iteri
          (fun i (v : Query.View.t) ->
            Alcotest.(check bool) "the plan reads the slot" true
              (Selfmaint.Plan.has_slots plans.(i));
            Alcotest.check Helpers.signed_bag
              (v.Query.View.name ^ " delta")
              (naive_delta ~pre:db txn v)
              (fst
                 (Selfmaint.Plan.step ~txn:1 plans.(i) ~pre:db
                    ~groups:Query.Compiled.no_groups
                    (Selfmaint.Plan.project plans.(i)
                       (Query.Delta.of_transaction txn)))))
          views;
        let s = Selfmaint.Plan.slot_stats slots in
        Alcotest.(check int) "the slot computed once" 1 s.Selfmaint.Plan.misses;
        Alcotest.(check int) "served to the other two views from the memo" 2
          s.Selfmaint.Plan.hits;
        Alcotest.(check bool) "maintenance rows counted" true
          (s.Selfmaint.Plan.rows_maintained > 0));
    case "a shared Group_by keeps its group state across transactions"
      (fun () ->
        let db =
          Database.of_list
            [ ("R0", Helpers.rel (schemas "R0") [ [ 0; 1 ]; [ 1; 2 ] ]);
              ("R1", Helpers.rel (schemas "R1") [ [ 1; 5 ]; [ 2; 6 ] ]);
              ("R2", Helpers.rel (schemas "R2") [ [ 5; 0 ] ]) ]
        in
        let rollup =
          Query.Algebra.group_by ~keys:[ "a1" ]
            ~aggregates:
              [ ("n", Query.Algebra.Count); ("s", Query.Algebra.Sum "a2");
                ("m", Query.Algebra.Max "a0") ]
            (Query.Algebra.join (rel 0) (rel 1))
        in
        let views =
          make_views
            [ rollup;
              Query.Algebra.select (Query.Pred.le "n" (Value.Int 5)) rollup ]
        in
        let plans, slots = shared_plans db views in
        Alcotest.(check int) "the join and the aggregate over it" 2
          (Selfmaint.Plan.slot_stats slots).Selfmaint.Plan.slots;
        let builds = Query.Compiled.group_state_builds ()
        and rows = Query.Compiled.group_rows () in
        let cur = ref db in
        let caches = Array.map Selfmaint.Plan.initial_cache plans in
        List.iteri
          (fun i tup ->
            let txn =
              Update.Transaction.make ~id:(i + 1) ~source:"s0"
                [ Update.insert (if i mod 2 = 0 then "R0" else "R1")
                    (Tuple.ints tup) ]
            in
            List.iteri
              (fun j (v : Query.View.t) ->
                let changes =
                  Selfmaint.Plan.project plans.(j)
                    (Query.Delta.of_transaction txn)
                in
                Alcotest.check Helpers.signed_bag
                  (v.Query.View.name ^ " delta")
                  (naive_delta ~pre:!cur txn v)
                  (fst
                     (Selfmaint.Plan.step ~txn:(i + 1) plans.(j)
                        ~pre:caches.(j) ~groups:Query.Compiled.no_groups
                        changes));
                caches.(j) <- Selfmaint.Plan.advance plans.(j) caches.(j) changes)
              views;
            cur := Database.apply_transaction !cur txn)
          [ [ 3; 1 ]; [ 2; 7 ]; [ 4; 2 ]; [ 1; 8 ]; [ 5; 1 ] ];
        Alcotest.(check int) "the slot's groups are built once" 1
          (Query.Compiled.group_state_builds () - builds);
        Alcotest.(check int) "and never refolded" 0
          (Query.Compiled.group_rows () - rows)) ]

(* ---- pinned paper traces ---- *)

(* Everything externally visible about a run: commit/action counts, the
   final instant, the whole warehouse state sequence (the VUT evolution
   of Examples 2-5 when the scenario is [paper_views]), the full event
   timeline, the served-read log and the oracle verdict. Sharing must
   change none of it. *)
let trace (r : Whips.System.result) =
  let views =
    r.Whips.System.config.Whips.System.scenario.Workload.Scenarios.views
  in
  let dump_state db =
    List.map
      (fun v ->
        Bag.to_list
          (Relation.contents (Database.find db (Query.View.name v))))
      views
  in
  let m = r.Whips.System.metrics in
  let reads =
    match r.Whips.System.serving with
    | None -> []
    | Some s ->
      List.map
        (fun rr ->
          ( rr.Whips.System.read_session,
            rr.Whips.System.read_version,
            rr.Whips.System.read_served,
            Bag.to_list rr.Whips.System.read_result ))
        s.Whips.System.reads_served
  in
  ( ( Atomic.get m.Whips.Metrics.commits,
      Atomic.get m.Whips.Metrics.actions_applied,
      m.Whips.Metrics.completed_at ),
    List.map dump_state (Warehouse.Store.states r.Whips.System.store),
    r.Whips.System.timeline,
    reads,
    Whips.System.verdict r )

let run_scen scen ~merge_kind ~shared =
  Whips.System.run
    { (Whips.System.default scen) with
      merge_kind;
      arrival = Whips.System.Uniform 0.02;
      reads = Some Whips.System.default_reads;
      record_timeline = true;
      shared_plans = shared;
      seed = 5 }

let pinned_case name scen ~merge_kind ~expect_sharing =
  case name (fun () ->
      let off = run_scen scen ~merge_kind ~shared:false in
      let on = run_scen scen ~merge_kind ~shared:true in
      Alcotest.(check bool) "byte-identical trace" true (trace on = trace off);
      if expect_sharing then begin
        let m = on.Whips.System.metrics in
        Alcotest.(check bool) "the slots were used" true
          (Atomic.get m.Whips.Metrics.shared_hits
           + Atomic.get m.Whips.Metrics.shared_misses
          > 0);
        let off_m = off.Whips.System.metrics in
        Alcotest.(check int) "no slots without the flag" 0
          (Atomic.get off_m.Whips.Metrics.shared_hits
          + Atomic.get off_m.Whips.Metrics.shared_misses)
      end)

let paper_tests =
  [ pinned_case "example1 is byte-identical under sharing (sequential)"
      Workload.Scenarios.example1 ~merge_kind:Whips.System.Sequential
      ~expect_sharing:false;
    pinned_case "paper_views VUT evolution is byte-identical (sequential)"
      Workload.Scenarios.paper_views ~merge_kind:Whips.System.Sequential
      ~expect_sharing:false;
    pinned_case "paper_views_q VUT evolution is byte-identical (sequential)"
      Workload.Scenarios.paper_views_q ~merge_kind:Whips.System.Sequential
      ~expect_sharing:false;
    pinned_case "auxiliary shares its sub-view joins (sequential)"
      Workload.Scenarios.auxiliary ~merge_kind:Whips.System.Sequential
      ~expect_sharing:true;
    pinned_case "paper_views is byte-identical under sharing (pipelined)"
      Workload.Scenarios.paper_views ~merge_kind:Whips.System.Auto
      ~expect_sharing:false;
    pinned_case "auxiliary shares its sub-view joins (pipelined)"
      Workload.Scenarios.auxiliary ~merge_kind:Whips.System.Auto
      ~expect_sharing:true ]

(* ---- Group_by state, supported and refused configurations ---- *)

let group_work (r : Whips.System.result) =
  let m = r.Whips.System.metrics in
  ( Atomic.get m.Whips.Metrics.group_rows,
    Atomic.get m.Whips.Metrics.group_state_builds )

let rollup_case merge_kind label =
  case
    (Printf.sprintf "%s: sales_rollup keeps its group state under sharing"
       label)
    (fun () ->
      let scen = Workload.Scenarios.sales_rollup in
      let off = run_scen scen ~merge_kind ~shared:false in
      let on = run_scen scen ~merge_kind ~shared:true in
      Alcotest.(check bool) "byte-identical trace" true (trace on = trace off);
      Alcotest.(check (pair int int)) "same group rows and state builds"
        (group_work off) (group_work on);
      Alcotest.(check bool) "the state was used" true
        (snd (group_work on) > 0))

(* Every combination the slots serve besides the plain one: WAL
   durability without crashes, acknowledged links, optimized view
   definitions and fused merging, all at once. *)
let composed_case =
  case "auxiliary is byte-identical under sharing with WAL, ARQ and fusing"
    (fun () ->
      let run shared =
        Whips.System.run
          { (Whips.System.default Workload.Scenarios.auxiliary) with
            arrival = Whips.System.Uniform 0.02;
            durable = Some Whips.System.default_durability;
            reliability = Whips.System.Acked Sim.Reliable.default_params;
            optimize_views = true;
            merge_batch = Whips.System.Fused;
            record_timeline = true;
            shared_plans = shared;
            seed = 5 }
      in
      let off = run false and on = run true in
      Alcotest.(check bool) "byte-identical trace" true (trace on = trace off);
      Alcotest.(check bool) "the slots were used" true
        (Atomic.get on.Whips.System.metrics.Whips.Metrics.shared_hits > 0))

let refused name edit reason =
  case ("shared_plans refuses " ^ name) (fun () ->
      Alcotest.check_raises "rejected up front"
        (Invalid_argument ("System: shared_plans " ^ reason))
        (fun () ->
          ignore
            (Whips.System.run
               (edit
                  { (Whips.System.default Workload.Scenarios.auxiliary) with
                    shared_plans = true }))))

let manager kind (cfg : Whips.System.config) =
  { cfg with Whips.System.vm_overrides = [ ("ST", kind) ] }

let complete_only why =
  "needs Complete_vm managers: view ST's manager " ^ why

let refusal_tests =
  [ refused "self-maintaining managers" (manager Whips.System.Selfmaint_vm)
      (complete_only
         "keeps projected auxiliaries, and slots read full replicas");
    refused "batching managers" (manager Whips.System.Batching_vm)
      (complete_only
         "steps several transactions at once, and slots advance one at a time");
    refused "complete-N managers" (manager (Whips.System.Complete_n_vm 2))
      (complete_only
         "steps several transactions at once, and slots advance one at a time");
    refused "managers that step no plan" (manager Whips.System.Strobe_vm)
      (complete_only "steps no plan, so nothing would be shared");
    refused "faults"
      (fun cfg ->
        { cfg with
          Whips.System.faults =
            [ Whips.System.Drop_action_list { view = "ST"; nth = 1 } ] })
      "needs a fault-free run: a lost message or a crash replays a view's \
       transactions out of step with the shared slots";
    refused "a fault plan"
      (fun cfg ->
        { cfg with
          Whips.System.fault_plan =
            Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.0 ~delay:0.0
              ~delay_by:0.0 "*" })
      "needs a fault-free run: a lost message or a crash replays a view's \
       transactions out of step with the shared slots";
    refused "semantic filtering"
      (fun cfg -> { cfg with Whips.System.semantic_filter = true })
      "excludes semantic_filter: a filtered view skips transactions the \
       shared slots it reads must advance through";
    case "the strawman runs any manager kind shared (it runs no managers)"
      (fun () ->
        let run shared =
          Whips.System.run
            { (Whips.System.default Workload.Scenarios.auxiliary) with
              merge_kind = Whips.System.Sequential;
              vm_kind = Whips.System.Batching_vm;
              shared_plans = shared;
              seed = 5 }
        in
        Alcotest.(check bool) "byte-identical trace" true
          (trace (run true) = trace (run false))) ]

let config_tests =
  [ rollup_case Whips.System.Sequential "sequential";
    rollup_case Whips.System.Auto "pipelined";
    composed_case ]
  @ refusal_tests

let tests = canon_tests @ oracle_tests @ paper_tests @ config_tests
