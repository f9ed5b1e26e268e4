open Relational

let case = Helpers.case

let make () =
  Source.Sources.create
    [ { source = "s1"; relation = "R";
        init = Helpers.rel (Helpers.int_schema [ "A"; "B" ]) [ [ 1; 2 ] ] };
      { source = "s2"; relation = "S";
        init = Helpers.rel (Helpers.int_schema [ "B"; "C" ]) [] } ]

(* Regression probes: a transaction deleting a tuple the source does not
   hold used to be executed with the deletion clamped at zero, while every
   downstream cache applied the transaction's summed delta — the warehouse
   then diverged from the sources for good. Both must now be rejected up
   front, naming the relation and tuple. *)
let clamp_probe view script rows =
  let scen =
    { Workload.Scenarios.name = "clamp-probe";
      specs =
        [ { Source.Sources.source = "s"; relation = "R";
            init = Helpers.rel (Helpers.int_schema [ "A"; "B" ]) rows } ];
      views = [ Query.View.make "V" view ];
      script }
  in
  match Whips.System.run (Whips.System.default scen) with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.fail "transaction was accepted"

let clamp_message tuple =
  Printf.sprintf "Sources.execute: deletes %s from R, which does not hold it"
    tuple

let tests =
  [ case "create exposes names and ownership" (fun () ->
        let s = make () in
        Alcotest.(check (list string)) "sources" [ "s1"; "s2" ]
          (Source.Sources.source_names s);
        Alcotest.(check string) "owner R" "s1" (Source.Sources.owner s "R");
        Alcotest.(check (list string)) "relations of s1" [ "R" ]
          (Source.Sources.relations_of s "s1"));
    case "duplicate relation declaration rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (match
             Source.Sources.create
               [ { source = "a"; relation = "R";
                   init = Relation.create (Helpers.int_schema [ "A" ]) };
                 { source = "b"; relation = "R";
                   init = Relation.create (Helpers.int_schema [ "A" ]) } ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "unknown source raises" (fun () ->
        Alcotest.check_raises "unknown" (Source.Sources.Unknown_source "zz")
          (fun () -> ignore (Source.Sources.relations_of (make ()) "zz")));
    case "execute assigns increasing ids from 1" (fun () ->
        let s = make () in
        let t1 = Source.Sources.execute s [ Update.insert "R" (Helpers.ints [ 3; 4 ]) ] in
        let t2 = Source.Sources.execute s [ Update.insert "S" (Helpers.ints [ 4; 5 ]) ] in
        Alcotest.(check int) "id1" 1 t1.Update.Transaction.id;
        Alcotest.(check int) "id2" 2 t2.Update.Transaction.id;
        Alcotest.(check int) "last" 2 (Source.Sources.last_id s));
    case "execute applies atomically and records states" (fun () ->
        let s = make () in
        let _ = Source.Sources.execute s [ Update.insert "R" (Helpers.ints [ 3; 4 ]) ] in
        Alcotest.(check int) "2 states" 2 (List.length (Source.Sources.states s));
        let ss0 = Source.Sources.state s 0 and ss1 = Source.Sources.state s 1 in
        Alcotest.(check int) "ss0 R has 1" 1
          (Relation.cardinal (Database.find ss0 "R"));
        Alcotest.(check int) "ss1 R has 2" 2
          (Relation.cardinal (Database.find ss1 "R")));
    case "state out of range raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (match Source.Sources.state (make ()) 1 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "empty transaction rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (match Source.Sources.execute (make ()) [] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "single-source ownership enforced" (fun () ->
        let s = make () in
        Alcotest.(check bool) "violation" true
          (match
             Source.Sources.execute s ~source:"s1"
               [ Update.insert "S" (Helpers.ints [ 1; 1 ]) ]
           with
          | exception Source.Sources.Ownership_violation _ -> true
          | _ -> false));
    case "multi-source transaction allowed without ~source" (fun () ->
        let s = make () in
        let txn =
          Source.Sources.execute s
            [ Update.insert "R" (Helpers.ints [ 9; 9 ]);
              Update.insert "S" (Helpers.ints [ 9; 9 ]) ]
        in
        Alcotest.(check string) "attributed to first owner" "s1"
          txn.Update.Transaction.source;
        Alcotest.(check int) "both applied" 1
          (Relation.cardinal (Database.find (Source.Sources.current s) "S")));
    case "transactions returned oldest first" (fun () ->
        let s = make () in
        let _ = Source.Sources.execute s [ Update.insert "R" (Helpers.ints [ 1; 1 ]) ] in
        let _ = Source.Sources.execute s [ Update.insert "R" (Helpers.ints [ 2; 2 ]) ] in
        Alcotest.(check (list int)) "ids" [ 1; 2 ]
          (List.map
             (fun (t : Update.Transaction.t) -> t.id)
             (Source.Sources.transactions s)));
    case "query evaluates against current state" (fun () ->
        let s = make () in
        let _ = Source.Sources.execute s [ Update.insert "S" (Helpers.ints [ 2; 3 ]) ] in
        let out =
          Source.Sources.query s Query.Algebra.(join (base "R") (base "S"))
        in
        Alcotest.check Helpers.bag "joined"
          (Helpers.bag_of [ [ 1; 2; 3 ] ])
          (Relation.contents out));
    case "initial is ss_0 regardless of later updates" (fun () ->
        let s = make () in
        let _ = Source.Sources.execute s [ Update.insert "R" (Helpers.ints [ 5; 5 ]) ] in
        Alcotest.(check int) "initial untouched" 1
          (Relation.cardinal (Database.find (Source.Sources.initial s) "R")));
    case "delete of an absent tuple is rejected" (fun () ->
        (* Used to leave the warehouse at {(5)} and the source at
           {(2),(5)} for the view pi[B](R). *)
        Alcotest.(check string) "names R and (3,2)" (clamp_message "[3; 2]")
          (clamp_probe
             Query.Algebra.(project [ "B" ] (base "R"))
             [ [ Update.delete "R" (Helpers.ints [ 3; 2 ]) ] ]
             [ [ 5; 5 ]; [ 1; 2 ] ]));
    case "delete-then-insert of an absent tuple is rejected" (fun () ->
        (* The summed delta is zero, but the source clamps the delete and
           keeps the insert: the view R used to lose (1,2). *)
        Alcotest.(check string) "names R and (1,2)" (clamp_message "[1; 2]")
          (clamp_probe (Query.Algebra.base "R")
             [ [ Update.delete "R" (Helpers.ints [ 1; 2 ]);
                 Update.insert "R" (Helpers.ints [ 1; 2 ]) ] ]
             [ [ 5; 5 ] ]));
    case "rejected transaction leaves the sources untouched" (fun () ->
        let s = make () in
        Alcotest.(check bool) "over-delete raises" true
          (match
             Source.Sources.execute s
               [ Update.delete "R" (Helpers.ints [ 1; 2 ]);
                 Update.delete "R" (Helpers.ints [ 1; 2 ]) ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Alcotest.(check int) "no id consumed" 0 (Source.Sources.last_id s);
        Alcotest.(check int) "R unchanged" 1
          (Relation.cardinal (Database.find (Source.Sources.current s) "R"));
        let txn =
          Source.Sources.execute s
            [ Update.delete "R" (Helpers.ints [ 1; 2 ]);
              Update.insert "R" (Helpers.ints [ 1; 2 ]) ]
        in
        Alcotest.(check int) "a clean delete-then-insert commits" 1
          txn.Update.Transaction.id) ]
