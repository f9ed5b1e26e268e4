open Relational
open Query

let case = Helpers.case

let schemas name =
  match name with
  | "R" -> Helpers.int_schema [ "A"; "B" ]
  | "S" -> Helpers.int_schema [ "B"; "C" ]
  | "Q" -> Helpers.int_schema [ "D"; "E" ]
  | "P" -> Helpers.int_schema [ "F"; "G" ]
  | other -> raise (Database.Unknown_relation other)

let views =
  [ View.make "V1" Algebra.(join (base "R") (base "S"));
    View.make "V2" Algebra.(base "S");
    View.make "V3" Algebra.(select (Pred.eq "D" (Value.Int 5)) (base "Q")) ]

let txn ?(id = 0) rel tuple =
  Update.Transaction.single ~id ~source:"s" (Update.insert rel (Helpers.ints tuple))

(* The reference for [rel_set]'s relation index: every view, in view
   order, tested by walking its definition. *)
let scan_rel_set ~semantic_filter views txn =
  let touched = Update.Transaction.relations txn in
  List.filter_map
    (fun (v : View.t) ->
      if
        List.exists
          (fun r -> List.mem r (Algebra.base_relations v.View.def))
          touched
        && ((not semantic_filter)
           || not
                (Irrelevance.provably_irrelevant ~schemas
                   ~changes:(Delta.of_transaction txn) v.View.def))
      then Some (View.name v)
      else None)
    views

module Rel_gen = struct
  open QCheck2.Gen

  (* "P" has a schema but no view uses it; "Z" has neither. *)
  let definition =
    oneofl
      Algebra.
        [ base "R"; base "S"; base "Q"; join (base "R") (base "S");
          select (Pred.eq "D" (Value.Int 5)) (base "Q");
          select (Pred.eq "A" (Value.Int 1)) (join (base "R") (base "S"));
          union (base "R") (select (Pred.eq "A" (Value.Int 2)) (base "R")) ]

  let views =
    map
      (List.mapi (fun i def -> View.make (Printf.sprintf "V%d" i) def))
      (list_size (int_range 0 8) definition)

  let update =
    let* rel = oneofl [ "R"; "S"; "Q"; "P"; "Z" ] in
    let* a = int_range 0 5 and* b = int_range 0 5 in
    let tuple = Helpers.ints [ a; b ] in
    oneofl
      [ Update.insert rel tuple; Update.delete rel tuple;
        Update.modify rel ~before:tuple ~after:(Helpers.ints [ b; a ]) ]

  let txn =
    map
      (Update.Transaction.make ~id:0 ~source:"s")
      (list_size (int_range 1 3) update)

  let case = triple views (list_size (int_range 1 5) txn) bool
end

(* [n] views [V0000 ..], view [i] over relation [R<i>] alone, with
   names of one width so only the view count differs between sizes. *)
let wide_views n =
  List.init n (fun i ->
      View.make (Printf.sprintf "V%04d" i)
        (Algebra.base (Printf.sprintf "R%04d" i)))

let wide_schemas _ = Helpers.int_schema [ "A"; "B" ]

(* Words one single-view update costs from ingest to a VUT row and
   back: [ingest], [rel_set], [Vut.add_row], [Vut.purge_row]. Measured
   after a warm-up update, with the VUT holding one other live row. *)
let per_update_words n =
  let views = wide_views n in
  let integ = Integrator.create ~schemas:wide_schemas views in
  let vut = Mvc.Vut.create ~views:(List.map View.name views) in
  Mvc.Vut.add_row vut ~row:0 ~rel:[ "V0003" ];
  let step () =
    let stamped, rel = Integrator.ingest integ (txn "R0007" [ 1; 2 ]) in
    let rel' = Integrator.rel_set integ stamped in
    let row = stamped.Update.Transaction.id in
    Mvc.Vut.add_row vut ~row ~rel;
    Mvc.Vut.purge_row vut row;
    (rel, rel')
  in
  let warm = step () in
  let got, words = Helpers.words_allocated step in
  assert (warm = got && fst got = [ "V0007" ]);
  words

let tests =
  [ case "rel_set: views mentioning the relation" (fun () ->
        let integ = Integrator.create ~schemas views in
        Alcotest.(check (list string)) "S hits V1 V2" [ "V1"; "V2" ]
          (Integrator.rel_set integ (txn "S" [ 1; 2 ]));
        Alcotest.(check (list string)) "R hits V1" [ "V1" ]
          (Integrator.rel_set integ (txn "R" [ 1; 2 ])));
    case "rel_set empty when nothing matches" (fun () ->
        let integ = Integrator.create ~schemas views in
        let t =
          Update.Transaction.single ~id:0 ~source:"s"
            (Update.insert "Z" (Helpers.ints [ 1 ]))
        in
        Alcotest.(check (list string)) "none" [] (Integrator.rel_set integ t));
    case "multi-update transactions union their views" (fun () ->
        let integ = Integrator.create ~schemas views in
        let t =
          Update.Transaction.make ~id:0 ~source:"s"
            [ Update.insert "R" (Helpers.ints [ 1; 2 ]);
              Update.insert "Q" (Helpers.ints [ 5; 5 ]) ]
        in
        Alcotest.(check (list string)) "V1 and V3" [ "V1"; "V3" ]
          (Integrator.rel_set integ t));
    case "ingest numbers by arrival from 1" (fun () ->
        let integ = Integrator.create ~schemas views in
        let t1, _ = Integrator.ingest integ (txn ~id:99 "R" [ 1; 2 ]) in
        let t2, _ = Integrator.ingest integ (txn ~id:98 "S" [ 1; 2 ]) in
        Alcotest.(check int) "1" 1 t1.Update.Transaction.id;
        Alcotest.(check int) "2" 2 t2.Update.Transaction.id;
        Alcotest.(check int) "count" 2 (Integrator.ingested integ));
    case "semantic filter drops provably irrelevant updates" (fun () ->
        let integ = Integrator.create ~semantic_filter:true ~schemas views in
        (* D=9 fails V3's selection D=5; no other view uses Q. *)
        Alcotest.(check (list string)) "filtered" []
          (Integrator.rel_set integ (txn "Q" [ 9; 9 ]));
        Alcotest.(check (list string)) "kept when passing" [ "V3" ]
          (Integrator.rel_set integ (txn "Q" [ 5; 9 ])));
    case "without semantic filter the syntactic set is used" (fun () ->
        let integ = Integrator.create ~schemas views in
        Alcotest.(check (list string)) "kept" [ "V3" ]
          (Integrator.rel_set integ (txn "Q" [ 9; 9 ])));
    case "view_names order preserved" (fun () ->
        let integ = Integrator.create ~schemas views in
        Alcotest.(check (list string)) "names" [ "V1"; "V2"; "V3" ]
          (Integrator.view_names integ));
    Helpers.qcheck ~count:300 "rel_set by relation index == scan of every view"
      Rel_gen.case (fun (views, txns, semantic_filter) ->
        let integ = Integrator.create ~semantic_filter ~schemas views in
        List.for_all
          (fun t ->
            Integrator.rel_set integ t
            = scan_rel_set ~semantic_filter views t)
          txns);
    case "one-view update allocates the same with 64 and 1,024 views"
      (fun () ->
        Alcotest.(check (float 0.)) "words"
          (per_update_words 64) (per_update_words 1024)) ]
