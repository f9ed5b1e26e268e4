open Relational
open Query

let case = Helpers.case

let sales = Helpers.int_schema [ "sku"; "store"; "qty" ]

let db rows = Database.of_list [ ("sales", Helpers.rel sales rows) ]

let base_rows = [ [ 1; 1; 5 ]; [ 1; 2; 3 ]; [ 2; 1; 7 ]; [ 2; 1; 7 ] ]

let by_store aggregates =
  Algebra.group_by ~keys:[ "store" ] ~aggregates (Algebra.base "sales")

let eval rows e = Relation.contents (Eval.eval (db rows) e)

(* The stateful Group_by rule against its oracles. Facts F(g, k, i, f)
   carry a small group key [g], a join key [k], and Int and Float
   measures that are often Null; dimension D(k, c) maps join keys to
   categories. Keys range over three values, so chains of updates empty
   groups and refill them, and modifies move rows between groups. *)
module Stateful = struct
  open QCheck2.Gen

  let f_schema =
    Schema.make
      [ ("g", Value.Int_ty); ("k", Value.Int_ty); ("i", Value.Int_ty);
        ("f", Value.Float_ty) ]

  let d_schema = Helpers.int_schema [ "k"; "c" ]

  let maybe_null gen = frequency [ (1, return Value.Null); (3, gen) ]

  (* Thirds make float sums depend on the order they are folded in. *)
  let third n = Value.Float (float_of_int n /. 3.0)

  let fact =
    map
      (fun (g, k, i, f) -> Tuple.of_list [ Value.Int g; Value.Int k; i; f ])
      (quad (int_range 0 2) (int_range 0 2)
         (maybe_null (map (fun n -> Value.Int n) (int_range (-4) 4)))
         (maybe_null (map third (int_range (-9) 9))))

  let dim =
    map2 (fun k c -> Tuple.ints [ k; c ]) (int_range 0 2) (int_range 0 1)

  let db_gen =
    map2
      (fun facts dims ->
        Database.of_list
          [ ("F", Relation.of_tuples f_schema facts);
            ("D", Relation.of_tuples d_schema dims) ])
      (list_size (int_range 0 6) fact)
      (list_size (int_range 0 3) dim)

  let aggregate =
    oneofl
      Algebra.
        [ Count; Sum "i"; Sum "f"; Avg "i"; Avg "f"; Min "i"; Min "f";
          Max "i"; Max "f" ]

  let aggregates =
    map
      (List.mapi (fun n agg -> (Printf.sprintf "x%d" n, agg)))
      (list_size (int_range 1 4) aggregate)

  let view_gen =
    let open Algebra in
    aggregates >>= fun aggs ->
    oneofl
      [ group_by ~keys:[ "g" ] ~aggregates:aggs (base "F");
        group_by ~keys:[ "c" ] ~aggregates:aggs (join (base "F") (base "D"));
        group_by ~keys:[ "g"; "c" ] ~aggregates:aggs
          (join (base "F") (base "D"));
        join (group_by ~keys:[ "k" ] ~aggregates:aggs (base "F")) (base "D");
        group_by ~keys:[ "n" ]
          ~aggregates:[ ("m", Count); ("s", Sum "a"); ("hi", Max "a") ]
          (group_by ~keys:[ "g" ]
             ~aggregates:[ ("n", Count); ("a", Avg "f") ]
             (base "F"));
        group_by ~keys:[]
          ~aggregates:[ ("lo", Min "s"); ("t", Sum "s"); ("c", Count) ]
          (group_by ~keys:[ "k" ] ~aggregates:[ ("s", Sum "f") ] (base "F")) ]

  (* One transaction against [db]: 1-3 updates, deletes and modifies on
     live rows (threaded through the transaction); or, one time in six,
     an over-delete of a tuple [db] does not hold. *)
  let txn_gen db =
    let live db r = Bag.to_list (Relation.contents (Database.find db r)) in
    let update db =
      oneofl [ "F"; "F"; "D" ] >>= fun r ->
      let fresh = if r = "F" then fact else dim in
      match live db r with
      | [] -> map (Update.insert r) fresh
      | rows ->
        oneof
          [ map (Update.insert r) fresh;
            map (Update.delete r) (oneofl rows);
            map2
              (fun before after -> Update.modify r ~before ~after)
              (oneofl rows) fresh ]
    in
    let rec clean db n acc =
      if n = 0 then return (List.rev acc)
      else
        update db >>= fun u ->
        clean (Database.apply_update db u) (n - 1) (u :: acc)
    in
    frequency
      [ (5, int_range 1 3 >>= fun n -> clean db n []);
        ( 1,
          map
            (fun t ->
              let absent = Value.Int 9 :: List.tl (Tuple.to_list t) in
              [ Update.delete "F" (Tuple.of_list absent) ])
            fact ) ]

  let chain_gen =
    db_gen >>= fun db ->
    view_gen >>= fun view ->
    let rec go db n acc =
      if n = 0 then return (List.rev acc)
      else
        txn_gen db >>= fun updates ->
        let txn = Update.Transaction.make ~id:(n + 1) ~source:"s" updates in
        go (Database.apply_transaction db txn) (n - 1) (txn :: acc)
    in
    int_range 1 8 >>= fun n ->
    map (fun txns -> (db, view, txns)) (go db n [])

  let print (db, view, txns) =
    Fmt.str "%a@.%s@.%a" Database.pp db (Algebra.to_string view)
      (Fmt.list ~sep:Fmt.cut Update.Transaction.pp) txns

  (* Every step equals the stateless rule and the interpreted one; a
     clean step applies exactly and leaves a state equal to a fresh
     partition of its post-state, and a clamped one drops the state. *)
  let check (db, view, txns) =
    let plan = Compiled.compile ~lookup:(Database.schema db) view in
    let fail = QCheck2.Test.fail_report in
    let same_groups (k, b) (k', b') = Tuple.equal k k' && Bag.equal b b' in
    let step (pre, groups) txn =
      let changes = Delta.of_transaction txn in
      let post = Database.apply_transaction pre txn in
      let delta, groups = Delta.step ~pre ~groups changes plan in
      if not (Signed_bag.equal delta (Delta.eval_plan ~pre changes plan)) then
        fail "step <> eval_plan";
      if not (Signed_bag.equal delta (Delta.eval ~naive:true ~pre changes view))
      then fail "step <> eval_naive";
      let state = Compiled.group_state groups in
      (match Delta.first_clamp ~pre changes with
      | Some _ -> if state <> [] then fail "clamped step kept its state"
      | None ->
        let before = Eval.eval_bag pre view in
        if
          not
            (Signed_bag.applies_exactly delta before
            && Bag.equal (Signed_bag.apply delta before)
                 (Eval.eval_bag post view))
        then fail "delta does not reach the post-state";
        let fresh =
          Compiled.group_state
            (Compiled.build_groups ~eval_pre:(Compiled.eval_bag post) plan)
        in
        List.iter
          (fun (slot, partition) ->
            if not (List.equal same_groups partition (List.assoc slot fresh))
            then fail "state is not a partition of the post-state")
          state);
      (post, groups)
    in
    ignore (List.fold_left step (db, Compiled.no_groups) txns);
    true
end

(* The sales_rollup views over 2000 sales and [n] mixed transactions:
   inserts, deletes and modifies of live sales (moving rows between
   stores and categories) and the odd new product. *)
let big_rollup ~n =
  let rng = Sim.Rng.create 11 in
  let sale sku_limit =
    Tuple.ints
      [ Sim.Rng.int rng sku_limit; Sim.Rng.int rng 12; 1 + Sim.Rng.int rng 30 ]
  in
  let products = ref 60 in
  let live = ref (Array.init 2000 (fun _ -> sale 60)) in
  let sales0 = Array.to_list !live in
  let take () =
    let rows = !live in
    let i = Sim.Rng.int rng (Array.length rows) in
    let row = rows.(i) in
    rows.(i) <- rows.(Array.length rows - 1);
    live := Array.sub rows 0 (Array.length rows - 1);
    row
  in
  let put row = live := Array.append !live [| row |] in
  let update () =
    match Sim.Rng.int rng 10 with
    | 0 ->
      incr products;
      Update.insert "product" (Tuple.ints [ !products - 1; !products mod 7 ])
    | 1 | 2 | 3 ->
      let row = sale !products in
      put row;
      Update.insert "sales" row
    | 4 | 5 | 6 -> Update.delete "sales" (take ())
    | _ ->
      let before = take () in
      let after = sale !products in
      put after;
      Update.modify "sales" ~before ~after
  in
  let script =
    List.init n (fun _ ->
        List.init (1 + Sim.Rng.int rng 3) (fun _ -> update ()))
  in
  let scen = Workload.Scenarios.sales_rollup in
  { scen with
    Workload.Scenarios.name = "sales-rollup-2000";
    specs =
      [ { Source.Sources.source = "pos"; relation = "sales";
          init = Relation.of_tuples sales sales0 };
        { Source.Sources.source = "catalog"; relation = "product";
          init =
            Helpers.rel (Helpers.int_schema [ "sku"; "cat" ])
              (List.init 60 (fun sku -> [ sku; sku mod 7 ])) } ];
    script }

let run_rollup scen ~vm_kind ~domains =
  Whips.System.run
    { (Whips.System.default scen) with
      vm_kind;
      arrival = Whips.System.Poisson 80.0;
      store_retention = Warehouse.Store.Keep_all;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      seed = 5 }

let system_tests =
  let full = big_rollup ~n:300 in
  let prefix =
    { full with
      Workload.Scenarios.script =
        List.filteri (fun i _ -> i < 150) full.script }
  in
  List.map
    (fun (label, vm_kind, level) ->
      case (Printf.sprintf "group state under %s: 2000 sales, 300 txns" label)
        (fun () ->
          let runs =
            List.map (fun domains -> run_rollup full ~vm_kind ~domains) [ 1; 4 ]
          in
          List.iter
            (fun (r : Whips.System.result) ->
              let m = r.metrics in
              let current = Source.Sources.current r.sources in
              List.iter
                (fun v ->
                  Alcotest.check Helpers.bag (Query.View.name v)
                    (Eval.eval_bag ~naive:true current v.Query.View.def)
                    (Whips.System.view_contents r (Query.View.name v)))
                full.views;
              (* Two Group_by views, one manager each: one build per node. *)
              Alcotest.(check int) "each node built once" 2
                (Atomic.get m.Whips.Metrics.group_state_builds);
              Alcotest.(check int) "no state dropped" 0
                (Atomic.get m.Whips.Metrics.group_state_drops))
            runs;
          (match runs with
          | [ one; four ] ->
            Alcotest.(check int) "same commits at 1 and 4 domains"
              (Atomic.get one.metrics.Whips.Metrics.commits)
              (Atomic.get four.metrics.Whips.Metrics.commits);
            Alcotest.(check (float 0.0)) "same completion instant"
              one.metrics.Whips.Metrics.completed_at
              four.metrics.Whips.Metrics.completed_at;
            Alcotest.(check bool) "same warehouse state sequence" true
              (List.equal Database.equal
                 (Warehouse.Store.states one.store)
                 (Warehouse.Store.states four.store))
          | _ -> assert false);
          let v =
            Whips.System.verdict (run_rollup prefix ~vm_kind ~domains:1)
          in
          (* The level each manager guarantees: batching skips states. *)
          Alcotest.(check string) "150-txn prefix verdict"
            (Consistency.Checker.level_name level)
            (Consistency.Checker.level_name (Consistency.Checker.level v))))
    [ ("Complete_vm", Whips.System.Complete_vm, Consistency.Checker.Complete);
      ("Batching_vm", Whips.System.Batching_vm, Consistency.Checker.Strong);
      ("Selfmaint_vm", Whips.System.Selfmaint_vm, Consistency.Checker.Complete);
      ("Complete_n_vm 3", Whips.System.Complete_n_vm 3,
       Consistency.Checker.Strong) ]
  @ [ case "selfmaint group recomputes cost what complete ones do" (fun () ->
          (* The projected plan keeps the same Group_by state as the
             replica one, so its per-update join work must not exceed
             the replica's by more than 10%, let alone grow with the
             input as a stateless rescan would. It may be lower: the
             keyed projections merge duplicate rows. *)
          let scen = big_rollup ~n:300 in
          let rows_per_update vm_kind =
            let k0 = Query.Compiled.kernel_rows () in
            ignore (run_rollup scen ~vm_kind ~domains:1);
            float_of_int (Query.Compiled.kernel_rows () - k0)
            /. float_of_int (List.length scen.Workload.Scenarios.script)
          in
          let complete = rows_per_update Whips.System.Complete_vm in
          let self = rows_per_update Whips.System.Selfmaint_vm in
          Alcotest.(check bool)
            (Printf.sprintf "selfmaint %.1f vs complete %.1f rows/update" self
               complete)
            true
            (self <= 1.1 *. complete)) ]

let tests =
  [ case "schema of group_by" (fun () ->
        let e =
          by_store [ ("total", Algebra.Sum "qty"); ("n", Algebra.Count) ]
        in
        let schema =
          Algebra.schema_of (fun _ -> sales) e
        in
        Alcotest.(check (list string)) "attrs" [ "store"; "total"; "n" ]
          (Schema.names schema);
        Alcotest.(check bool) "count is int" true
          (Schema.type_of schema "n" = Value.Int_ty));
    case "schema of avg is float" (fun () ->
        let e = by_store [ ("a", Algebra.Avg "qty") ] in
        Alcotest.(check bool) "float" true
          (Schema.type_of (Algebra.schema_of (fun _ -> sales) e) "a"
          = Value.Float_ty));
    case "count respects multiplicity" (fun () ->
        let out = eval base_rows (by_store [ ("n", Algebra.Count) ]) in
        Alcotest.(check int) "store 1 count 3" 1
          (Bag.count out (Helpers.ints [ 1; 3 ]));
        Alcotest.(check int) "store 2 count 1" 1
          (Bag.count out (Helpers.ints [ 2; 1 ])));
    case "sum / min / max" (fun () ->
        let out =
          eval base_rows
            (by_store
               [ ("s", Algebra.Sum "qty"); ("lo", Algebra.Min "qty");
                 ("hi", Algebra.Max "qty") ])
        in
        Alcotest.(check int) "store 1: sum=19 min=5 max=7" 1
          (Bag.count out (Helpers.ints [ 1; 19; 5; 7 ]));
        Alcotest.(check int) "store 2: sum=3" 1
          (Bag.count out (Helpers.ints [ 2; 3; 3; 3 ])));
    case "avg" (fun () ->
        let out = eval base_rows (by_store [ ("a", Algebra.Avg "qty") ]) in
        let expected =
          Tuple.of_list [ Value.Int 1; Value.Float (19.0 /. 3.0) ]
        in
        Alcotest.(check int) "store 1 avg" 1 (Bag.count out expected));
    case "empty input yields no groups" (fun () ->
        Alcotest.check Helpers.bag "empty" Bag.empty
          (eval [] (by_store [ ("n", Algebra.Count) ])));
    case "nulls: skipped by sum, counted by count" (fun () ->
        let rows =
          Bag.of_list
            [ Tuple.of_list [ Value.Int 1; Value.Int 1; Value.Null ];
              Tuple.of_list [ Value.Int 2; Value.Int 1; Value.Int 4 ] ]
        in
        let db =
          Database.of_list
            [ ("sales", Relation.with_contents (Relation.create sales) rows) ]
        in
        let out =
          Relation.contents
            (Eval.eval db
               (by_store [ ("s", Algebra.Sum "qty"); ("n", Algebra.Count) ]))
        in
        Alcotest.(check int) "sum skips null" 1
          (Bag.count out (Helpers.ints [ 1; 4; 2 ])));
    case "delta: insert into existing group" (fun () ->
        let e = by_store [ ("s", Algebra.Sum "qty") ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 9; 1; 1 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "old row retracted" (-1)
          (Signed_bag.count d (Helpers.ints [ 1; 19 ]));
        Alcotest.(check int) "new row inserted" 1
          (Signed_bag.count d (Helpers.ints [ 1; 20 ]));
        Alcotest.(check int) "only two entries" 2
          (List.length (Signed_bag.to_list d)));
    case "delta: delete emptying a group retracts it" (fun () ->
        let e = by_store [ ("n", Algebra.Count) ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update (Update.delete "sales" (Helpers.ints [ 1; 2; 3 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "group 2 gone" (-1)
          (Signed_bag.count d (Helpers.ints [ 2; 1 ]));
        Alcotest.(check int) "no replacement" 0
          (Signed_bag.count d (Helpers.ints [ 2; 0 ])));
    case "delta: min under deletion recomputes the group" (fun () ->
        let e = by_store [ ("lo", Algebra.Min "qty") ] in
        let pre = db base_rows in
        (* Deleting the minimum of store 1 (qty 5) must surface 7. *)
        let changes =
          Delta.of_update (Update.delete "sales" (Helpers.ints [ 1; 1; 5 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "-[1;5]" (-1)
          (Signed_bag.count d (Helpers.ints [ 1; 5 ]));
        Alcotest.(check int) "+[1;7]" 1 (Signed_bag.count d (Helpers.ints [ 1; 7 ])));
    case "delta: update not changing the aggregate is empty" (fun () ->
        let e = by_store [ ("n", Algebra.Count) ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update
            (Update.modify "sales" ~before:(Helpers.ints [ 1; 1; 5 ])
               ~after:(Helpers.ints [ 3; 1; 8 ]))
        in
        Alcotest.(check bool) "zero" true
          (Signed_bag.is_zero (Delta.eval ~pre changes e)));
    case "irrelevance: key selection pushes through group_by" (fun () ->
        let e =
          Algebra.select
            (Pred.eq "store" (Value.Int 5))
            (by_store [ ("n", Algebra.Count) ])
        in
        let schemas = function
          | "sales" -> sales
          | other -> raise (Database.Unknown_relation other)
        in
        let changes =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 1; 1; 1 ]))
        in
        Alcotest.(check bool) "store 1 ruled out for store=5 view" true
          (Irrelevance.provably_irrelevant ~schemas ~changes e);
        let changes5 =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 1; 5; 1 ]))
        in
        Alcotest.(check bool) "store 5 kept" false
          (Irrelevance.provably_irrelevant ~schemas ~changes:changes5 e));
    case "group_by over join" (fun () ->
        let product = Helpers.int_schema [ "sku"; "cat" ] in
        let db =
          Database.of_list
            [ ("sales", Helpers.rel sales base_rows);
              ("product", Helpers.rel product [ [ 1; 10 ]; [ 2; 20 ] ]) ]
        in
        let e =
          Algebra.group_by ~keys:[ "cat" ]
            ~aggregates:[ ("s", Algebra.Sum "qty") ]
            Algebra.(join (base "sales") (base "product"))
        in
        let out = Relation.contents (Eval.eval db e) in
        Alcotest.(check int) "cat 10: 5+3" 1
          (Bag.count out (Helpers.ints [ 10; 8 ]));
        Alcotest.(check int) "cat 20: 7+7" 1
          (Bag.count out (Helpers.ints [ 20; 14 ])));
    Helpers.qcheck ~count:200 "group_by delta == recompute"
      QCheck2.Gen.(
        Helpers.Delta_domain.db_gen >>= fun db ->
        Helpers.Delta_domain.changes_gen db >>= fun updates ->
        oneofl
          [ Algebra.group_by ~keys:[ "a1" ]
              ~aggregates:
                [ ("s", Algebra.Sum "a2"); ("n", Algebra.Count) ]
              (Algebra.base "R1");
            Algebra.group_by ~keys:[ "a0" ]
              ~aggregates:[ ("m", Algebra.Min "a1") ]
              (Algebra.base "R0");
            Algebra.group_by ~keys:[ "a1" ]
              ~aggregates:
                [ ("mx", Algebra.Max "a2"); ("av", Algebra.Avg "a2") ]
              Algebra.(join (base "R0") (base "R1")) ]
        >>= fun expr -> return (db, updates, expr))
      (fun (pre, updates, expr) ->
        let txn = Update.Transaction.make ~id:1 ~source:"s" updates in
        let changes = Delta.of_transaction txn in
        let post = Database.apply_transaction pre txn in
        let delta = Delta.eval ~pre changes expr in
        let before = Eval.eval_bag pre expr in
        let after = Eval.eval_bag post expr in
        Bag.equal (Signed_bag.apply delta before) after
        && Signed_bag.applies_exactly delta before);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:Stateful.print
         ~name:"stateful group_by step == eval_plan == naive over chains"
         Stateful.chain_gen Stateful.check);
    case "sales-rollup scenario is complete end to end" (fun () ->
        let scen = Workload.Scenarios.sales_rollup in
        let result =
          Whips.System.run
            { (Whips.System.default scen) with
              arrival = Whips.System.Poisson 50.0;
              seed = 3 }
        in
        let v = Whips.System.verdict result in
        Alcotest.(check bool) "complete" true v.complete;
        (* Spot-check a rollup value at the end. *)
        let expected =
          Relation.contents
            (Query.View.materialize
               (Source.Sources.current result.sources)
               (List.hd scen.views))
        in
        Alcotest.check Helpers.bag "qty_by_store" expected
          (Whips.System.view_contents result "qty_by_store"));
    case "aggregate views with batching managers stay strong" (fun () ->
        let scen = Workload.Scenarios.sales_rollup in
        let result =
          Whips.System.run
            { (Whips.System.default scen) with
              vm_kind = Whips.System.Batching_vm;
              arrival = Whips.System.Poisson 150.0;
              seed = 9 }
        in
        let v = Whips.System.verdict result in
        Alcotest.(check bool) "strong" true v.strongly_consistent) ]
  @ system_tests
