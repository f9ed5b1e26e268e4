open Relational
open Query

let case = Helpers.case

let rs = Helpers.int_schema [ "A"; "B" ]

let ss = Helpers.int_schema [ "B"; "C" ]

let db =
  Database.of_list
    [ ("R", Helpers.rel rs [ [ 1; 2 ] ]); ("S", Helpers.rel ss [ [ 2; 3 ] ]) ]

let insert_s = Delta.of_update (Update.insert "S" (Helpers.ints [ 2; 9 ]))

let tests =
  [ case "delta of base = the change" (fun () ->
        Alcotest.check Helpers.signed_bag "+1"
          (Signed_bag.singleton (Helpers.ints [ 2; 9 ]) 1)
          (Delta.eval ~pre:db insert_s (Algebra.base "S")));
    case "delta of unrelated base is zero" (fun () ->
        Alcotest.(check bool) "zero" true
          (Signed_bag.is_zero (Delta.eval ~pre:db insert_s (Algebra.base "R"))));
    case "delta of select filters the delta" (fun () ->
        let e = Algebra.(select (Pred.eq "C" (Value.Int 9)) (base "S")) in
        Alcotest.(check int) "+1 through" 1
          (Signed_bag.count (Delta.eval ~pre:db insert_s e) (Helpers.ints [ 2; 9 ]));
        let e' = Algebra.(select (Pred.eq "C" (Value.Int 3)) (base "S")) in
        Alcotest.(check bool) "filtered out" true
          (Signed_bag.is_zero (Delta.eval ~pre:db insert_s e')));
    case "delta of join: new tuple joins pre-state" (fun () ->
        let e = Algebra.(join (base "R") (base "S")) in
        Alcotest.check Helpers.signed_bag "joined"
          (Signed_bag.singleton (Helpers.ints [ 1; 2; 9 ]) 1)
          (Delta.eval ~pre:db insert_s e));
    case "delta of join with both sides changing includes dAxdB" (fun () ->
        let changes =
          Delta.changes_of_list
            [ ("R", Signed_bag.singleton (Helpers.ints [ 5; 7 ]) 1);
              ("S", Signed_bag.singleton (Helpers.ints [ 7; 7 ]) 1) ]
        in
        let e = Algebra.(join (base "R") (base "S")) in
        let d = Delta.eval ~pre:db changes e in
        Alcotest.(check int) "cross term present" 1
          (Signed_bag.count d (Helpers.ints [ 5; 7; 7 ])));
    case "delta of delete produces negative counts" (fun () ->
        let del = Delta.of_update (Update.delete "S" (Helpers.ints [ 2; 3 ])) in
        let e = Algebra.(join (base "R") (base "S")) in
        Alcotest.check Helpers.signed_bag "-1"
          (Signed_bag.singleton (Helpers.ints [ 1; 2; 3 ]) (-1))
          (Delta.eval ~pre:db del e));
    case "delta of union sums" (fun () ->
        let e = Algebra.(union (project [ "B" ] (base "R")) (project [ "B" ] (base "S"))) in
        let d = Delta.eval ~pre:db insert_s e in
        Alcotest.(check int) "+1 on [2]" 1 (Signed_bag.count d (Helpers.ints [ 2 ])));
    case "delta of rename passes through" (fun () ->
        let e = Algebra.(rename [ ("C", "Z") ] (base "S")) in
        Alcotest.(check int) "+1" 1
          (Signed_bag.count (Delta.eval ~pre:db insert_s e) (Helpers.ints [ 2; 9 ])));
    case "of_transactions combines batches" (fun () ->
        let t1 = Update.Transaction.single ~id:1 ~source:"s" (Update.insert "S" (Helpers.ints [ 9; 9 ])) in
        let t2 = Update.Transaction.single ~id:2 ~source:"s" (Update.delete "S" (Helpers.ints [ 9; 9 ])) in
        let changes = Delta.of_transactions [ t1; t2 ] in
        Alcotest.(check bool) "cancels" true
          (Signed_bag.is_zero (Delta.change_for changes "S")));
    case "changed_relations omits zero deltas" (fun () ->
        let t1 = Update.Transaction.single ~id:1 ~source:"s" (Update.insert "S" (Helpers.ints [ 9; 9 ])) in
        let t2 = Update.Transaction.single ~id:2 ~source:"s" (Update.delete "S" (Helpers.ints [ 9; 9 ])) in
        Alcotest.(check (list string)) "none" []
          (Delta.changed_relations (Delta.of_transactions [ t1; t2 ])));
    case "relevant is syntactic" (fun () ->
        Alcotest.(check bool) "S relevant" true
          (Delta.relevant insert_s (Algebra.base "S"));
        Alcotest.(check bool) "R not" false
          (Delta.relevant insert_s (Algebra.base "R")));
    (* The key incremental-maintenance invariant, on random databases,
       update batches and expressions. *)
    Helpers.qcheck ~count:300 "apply delta == recompute"
      QCheck2.Gen.(
        Helpers.Delta_domain.db_gen >>= fun db ->
        Helpers.Delta_domain.changes_gen db >>= fun updates ->
        Helpers.Delta_domain.expr_gen >>= fun expr ->
        return (db, updates, expr))
      (fun (pre, updates, expr) ->
        let txn = Update.Transaction.make ~id:1 ~source:"s" updates in
        let changes = Delta.of_transaction txn in
        let post = Database.apply_transaction pre txn in
        let delta = Delta.eval ~pre changes expr in
        let before = Eval.eval_bag pre expr in
        let after = Eval.eval_bag post expr in
        Bag.equal (Signed_bag.apply delta before) after
        && Signed_bag.applies_exactly delta before);
    Helpers.qcheck ~count:100 "batch delta == sequential deltas"
      QCheck2.Gen.(
        Helpers.Delta_domain.db_gen >>= fun db ->
        Helpers.Delta_domain.changes_gen db >>= fun u1 ->
        Helpers.Delta_domain.expr_gen >>= fun expr ->
        return (db, u1, expr))
      (fun (pre, updates, expr) ->
        (* One transaction per update, batched vs step-by-step. *)
        let txns =
          List.mapi
            (fun i u -> Update.Transaction.single ~id:(i + 1) ~source:"s" u)
            updates
        in
        let batch_delta = Delta.eval ~pre (Delta.of_transactions txns) expr in
        let step_delta, _ =
          List.fold_left
            (fun (acc, db) txn ->
              let d = Delta.eval ~pre:db (Delta.of_transaction txn) expr in
              (Signed_bag.sum acc d, Database.apply_transaction db txn))
            (Signed_bag.zero, pre) txns
        in
        Bag.equal
          (Signed_bag.apply batch_delta (Eval.eval_bag pre expr))
          (Signed_bag.apply step_delta (Eval.eval_bag pre expr)));
    (* The columnar probe path (relation-cached indexes) against the
       interpreted delta rules. *)
    Helpers.qcheck ~count:300 "columnar delta == naive delta"
      QCheck2.Gen.(
        Helpers.Delta_domain.db_gen >>= fun db ->
        Helpers.Delta_domain.changes_gen db >>= fun updates ->
        Helpers.Delta_domain.expr_gen >>= fun expr ->
        return (db, updates, expr))
      (fun (pre, updates, expr) ->
        let txn = Update.Transaction.make ~id:1 ~source:"s" updates in
        let changes = Delta.of_transaction txn in
        Signed_bag.equal
          (Delta.eval ~pre changes expr)
          (Delta.eval ~naive:true ~pre changes expr)) ]
