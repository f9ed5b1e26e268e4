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
    let same_groups (k, b, row) (k', b', row') =
      Tuple.equal k k' && Bag.equal b b' && Tuple.equal row row'
    in
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
            then fail "state is not the post-state's partition and rows")
          state);
      (post, groups)
    in
    ignore (List.fold_left step (db, Compiled.no_groups) txns);
    true
end

(* The maintained group rows against the oracles, on clamp-free chains
   aimed at what the running accumulators must get right: Nulls, deletes
   of a group's current Min/Max (also of one of several members holding
   it), groups emptied and re-created, and Int sums that wrap around.
   Facts M(g, i, f) fall in two groups; the Int and Float measures come
   from small pools, so extremes are often shared. *)
module Running = struct
  open QCheck2.Gen

  let schema =
    Schema.make
      [ ("g", Value.Int_ty); ("i", Value.Int_ty); ("f", Value.Float_ty) ]

  let ints = [ min_int; min_int + 1; -3; 0; 2; 5; max_int - 1; max_int ]

  (* 1e16 absorbs the small terms, so a float sum depends on its order. *)
  let floats = [ -1.0 /. 3.0; 0.1; 2.0 /. 3.0; 1e16 ]

  let measure pool = frequency [ (1, return Value.Null); (4, oneofl pool) ]

  let fact =
    map3
      (fun g i f -> Tuple.of_list [ Value.Int g; i; f ])
      (int_range 0 1)
      (measure (List.map (fun n -> Value.Int n) ints))
      (measure (List.map (fun x -> Value.Float x) floats))

  let all_aggregates =
    Algebra.
      [ ("n", Count); ("si", Sum "i"); ("ai", Avg "i"); ("lo_i", Min "i");
        ("hi_i", Max "i"); ("sf", Sum "f"); ("af", Avg "f"); ("lo_f", Min "f");
        ("hi_f", Max "f") ]

  (* A random non-empty subset: a float Sum or an Avg refolds its group
     on every non-null change, so views without them are what exercise
     the running Count, Int Sum and Min/Max alone. *)
  let view_gen =
    list_repeat (List.length all_aggregates) bool >>= fun picks ->
    let aggregates =
      match List.filteri (fun n _ -> List.nth picks n) all_aggregates with
      | [] -> [ List.hd all_aggregates ]
      | chosen -> chosen
    in
    oneofl
      Algebra.
        [ group_by ~keys:[ "g" ] ~aggregates (base "M");
          group_by ~keys:[] ~aggregates (base "M") ]

  let live db = Bag.to_list (Relation.contents (Database.find db "M"))

  let in_group g rows =
    List.filter (fun t -> Value.equal (Tuple.get t 0) (Value.Int g)) rows

  (* The live rows of group [g] holding the extreme of column [pos]. *)
  let extreme_rows db ~g ~pos ~better =
    let rows = in_group g (live db) in
    let values =
      List.filter_map
        (fun t ->
          match Tuple.get t pos with Value.Null -> None | v -> Some v)
        rows
    in
    match values with
    | [] -> []
    | v :: vs ->
      let best =
        List.fold_left
          (fun b v -> if better (Value.compare v b) then v else b)
          v vs
      in
      List.filter (fun t -> Value.equal (Tuple.get t pos) best) rows

  (* One step of a transaction as a list of updates, against [db]. *)
  let updates db =
    let extreme =
      int_range 0 1 >>= fun g ->
      oneofl [ 1; 2 ] >>= fun pos ->
      oneofl [ (fun c -> c < 0); (fun c -> c > 0) ] >>= fun better ->
      return (g, pos, extreme_rows db ~g ~pos ~better)
    in
    match live db with
    | [] -> map (fun t -> [ Update.insert "M" t ]) fact
    | rows ->
      frequency
        [ (3, map (fun t -> [ Update.insert "M" t ]) fact);
          (2, map (fun t -> [ Update.delete "M" t ]) (oneofl rows));
          ( 2,
            map2
              (fun before after -> [ Update.modify "M" ~before ~after ])
              (oneofl rows) fact );
          (* Delete one member holding the extreme. *)
          ( 3,
            extreme >>= function
            | _, _, [] -> return []
            | _, _, holders ->
              map (fun t -> [ Update.delete "M" t ]) (oneofl holders) );
          (* Share the extreme with a new member. *)
          ( 2,
            extreme >>= function
            | _, _, [] -> return []
            | g, pos, t :: _ ->
              map
                (fun fresh ->
                  let v = Array.of_list (Tuple.to_list fresh) in
                  v.(0) <- Value.Int g;
                  v.(pos) <- Tuple.get t pos;
                  [ Update.insert "M" (Tuple.of_array v) ])
                fact );
          (* Empty a group, one delete per copy. *)
          ( 1,
            map
              (fun g -> List.map (Update.delete "M") (in_group g rows))
              (int_range 0 1) ) ]

  let txn_gen db =
    let rec go db n acc =
      if n = 0 then return (List.concat (List.rev acc))
      else
        updates db >>= fun us ->
        go (List.fold_left Database.apply_update db us) (n - 1) (us :: acc)
    in
    int_range 1 3 >>= fun n -> go db n []

  let chain_gen =
    map
      (fun rows -> Database.of_list [ ("M", Relation.of_tuples schema rows) ])
      (list_size (int_range 0 8) fact)
    >>= fun db ->
    view_gen >>= fun view ->
    let rec go db n acc =
      if n = 0 then return (List.rev acc)
      else
        txn_gen db >>= fun updates ->
        if updates = [] then go db (n - 1) acc
        else
          let txn = Update.Transaction.make ~id:n ~source:"s" updates in
          go (Database.apply_transaction db txn) (n - 1) (txn :: acc)
    in
    int_range 1 10 >>= fun n ->
    map (fun txns -> (db, view, txns)) (go db n [])

  let print (db, view, txns) =
    Fmt.str "%a@.%s@.%a" Database.pp db (Algebra.to_string view)
      (Fmt.list ~sep:Fmt.cut Update.Transaction.pp) txns

  (* Equal rows, floats compared bit for bit. *)
  let identical a b =
    List.equal
      (fun x y ->
        match (x, y) with
        | Value.Float x, Value.Float y ->
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | _ -> Value.equal x y)
      (Tuple.to_list a) (Tuple.to_list b)

  let same_state =
    List.equal (fun (s, groups) (s', groups') ->
        s = s'
        && List.equal
             (fun (k, b, row) (k', b', row') ->
               Tuple.equal k k' && Bag.equal b b' && identical row row')
             groups groups')

  (* After every step: the delta equals the naive rule's; each cached row
     equals the aggregate of its members, and the state equals one built
     afresh from the post-state; the step leaves its pre-state's state
     untouched. Then every step is re-run from its own pre-state on the
     default parallel runtime, all at once (across domains under
     MVC_DOMAINS), and must reproduce its delta and state. *)
  let check (db, view, txns) =
    let plan = Compiled.compile ~lookup:(Database.schema db) view in
    let group =
      match view with Algebra.Group_by g -> g | _ -> assert false
    in
    let input_schema = Algebra.schema_of (Database.schema db) group.input in
    let fail = QCheck2.Test.fail_report in
    let step (pre, groups) txn =
      Delta.step ~pre ~groups (Delta.of_transaction txn) plan
    in
    let check_step ((pre, groups), steps) txn =
      let changes = Delta.of_transaction txn in
      if Delta.first_clamp ~pre changes <> None then fail "chain clamps";
      let before = Compiled.group_state groups in
      let ((delta, groups') as result) = step (pre, groups) txn in
      let post = Database.apply_transaction pre txn in
      if not (Signed_bag.equal delta (Delta.eval ~naive:true ~pre changes view))
      then fail "step <> naive delta";
      if not (same_state before (Compiled.group_state groups)) then
        fail "step changed the state it started from";
      let state = Compiled.group_state groups' in
      let fresh =
        Compiled.group_state
          (Compiled.build_groups ~eval_pre:(Compiled.eval_bag post) plan)
      in
      List.iter
        (fun ((slot, partition) as built) ->
          List.iter
            (fun (key, members, row) ->
              if
                not
                  (identical row
                     (Compiled.aggregate_group ~input_schema ~group ~key
                        members))
              then fail "cached row <> aggregate of its members")
            partition;
          if not (same_state [ built ] [ (slot, List.assoc slot fresh) ]) then
            fail "state <> a fresh build of the post-state")
        state;
      ((post, groups'), ((pre, groups), txn, result) :: steps)
    in
    let _, steps =
      List.fold_left check_step ((db, Compiled.no_groups), []) txns
    in
    let exec = Parallel.Config.exec (Parallel.Config.default ()) in
    let rerun = Parallel.Exec.map exec (fun (s, txn, _) -> step s txn) steps in
    List.iter2
      (fun (_, _, (delta, groups)) (delta', groups') ->
        if
          not
            (Signed_bag.equal delta delta'
            && same_state
                 (Compiled.group_state groups)
                 (Compiled.group_state groups'))
        then fail "a re-run step differs")
      steps rerun;
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
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:Running.print
         ~name:"running aggregates == naive over extreme-deleting chains"
         Running.chain_gen Running.check);
    case "a 1-row change to a 10k-member group folds no member" (fun () ->
        (* One group of 10k distinct values under Count, Int Sum and Max:
           an insert and a non-extreme delete derive the new row from the
           cached one — no member folded, allocation O(|delta| log G)
           plus the member bag's O(log |group|) path — while deleting
           the unique max refolds the group once. *)
        let size = 10_000 in
        let schema = Helpers.int_schema [ "g"; "v" ] in
        let db =
          Database.of_list
            [ ("S", Helpers.rel schema (List.init size (fun v -> [ 0; v ]))) ]
        in
        let view =
          Algebra.group_by ~keys:[ "g" ]
            ~aggregates:
              Algebra.[ ("n", Count); ("s", Sum "v"); ("hi", Max "v") ]
            (Algebra.base "S")
        in
        let plan = Compiled.compile ~lookup:(Database.schema db) view in
        let groups =
          Compiled.build_groups ~eval_pre:(Compiled.eval_bag db) plan
        in
        (* A tenth of a word per member: a refold allocates two boxed
           Ints per member for the Sum alone. About 500 words are used. *)
        let budget = float_of_int size /. 10.0 in
        let step (pre, groups) u =
          let changes = Delta.of_update u in
          let rows0 = Compiled.group_rows () in
          let (delta, groups), words =
            Helpers.words_allocated (fun () ->
                Delta.step ~pre ~groups changes plan)
          in
          let folded = Compiled.group_rows () - rows0 in
          Alcotest.check Helpers.signed_bag "delta = naive"
            (Delta.eval ~naive:true ~pre changes view)
            delta;
          ((Database.apply_update pre u, groups), folded, words)
        in
        let within name words =
          if words >= budget then
            Alcotest.failf "%s allocated %.0f words; budget %.0f" name words
              budget
        in
        let s, folded, words =
          step (db, groups) (Update.insert "S" (Helpers.ints [ 0; 5000 ]))
        in
        Alcotest.(check int) "insert folds no member" 0 folded;
        within "insert" words;
        let s, folded, words =
          step s (Update.delete "S" (Helpers.ints [ 0; 17 ]))
        in
        Alcotest.(check int) "non-extreme delete folds no member" 0 folded;
        within "non-extreme delete" words;
        let (_, groups), folded, _ =
          step s (Update.delete "S" (Helpers.ints [ 0; size - 1 ]))
        in
        Alcotest.(check int) "deleting the max refolds the group once"
          (size - 1) folded;
        match Compiled.group_state groups with
        | [ (_, [ (_, _, row) ]) ] ->
          Alcotest.check Helpers.tuple "row after the refold"
            (Tuple.ints
               [ 0; size - 1; (size * (size - 1) / 2) + 5000 - 17 - (size - 1);
                 size - 2 ])
            row
        | _ -> Alcotest.fail "expected one built node with one group");
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
