(* Shared test utilities: alcotest testables, tuple/schema shorthands, and
   qcheck generators over the relational domain. *)

open Relational

let bag = Alcotest.testable Bag.pp Bag.equal

let signed_bag = Alcotest.testable Signed_bag.pp Signed_bag.equal

let tuple = Alcotest.testable Tuple.pp Tuple.equal

let schema = Alcotest.testable Schema.pp Schema.equal

let relation = Alcotest.testable Relation.pp Relation.equal

let value = Alcotest.testable Value.pp Value.equal

let ints = Tuple.ints

let int_schema names = Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

let bag_of lists = Bag.of_list (List.map ints lists)

let rel schema lists = Relation.of_tuples schema (List.map ints lists)

let case name f = Alcotest.test_case name `Quick f

(* Words allocated by [f ()]: [Gc.minor_words] (exact, unlike the
   counters, which only catch up at a minor collection) plus the words
   allocated directly on the major heap — the large blocks, such as a
   chunk's columns. The allocation guards bound it. *)
let words_allocated f =
  let direct_major () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let minor0 = Gc.minor_words () and major0 = direct_major () in
  let r = f () in
  let minor1 = Gc.minor_words () and major1 = direct_major () in
  (r, minor1 -. minor0 +. (major1 -. major0))

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* qcheck generators *)

module Gen = struct
  open QCheck2.Gen

  let small_value =
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-5) 5);
        map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'c') (int_range 0 2)) ]

  let int_tuple ~arity ~range =
    map Tuple.ints (list_size (return arity) (int_range 0 (range - 1)))

  let small_bag ~arity ~range =
    map Bag.of_list (list_size (int_range 0 8) (int_tuple ~arity ~range))

  let small_signed ~arity ~range =
    map Signed_bag.of_list
      (list_size (int_range 0 8)
         (pair (int_tuple ~arity ~range) (int_range (-3) 3)))
end

(* A tiny random database + expression pair for delta-vs-recompute
   property tests: chain schema R0(a0,a1), R1(a1,a2), R2(a2,a3). *)
module Delta_domain = struct
  open QCheck2.Gen

  let relations = [ "R0"; "R1"; "R2" ]

  let schema_of k = int_schema [ Printf.sprintf "a%d" k; Printf.sprintf "a%d" (k + 1) ]

  let db_gen =
    let rel_gen k =
      map
        (fun tuples ->
          Relation.with_contents (Relation.create (schema_of k)) tuples)
        (Gen.small_bag ~arity:2 ~range:4)
    in
    map
      (fun (r0, (r1, r2)) ->
        Database.of_list [ ("R0", r0); ("R1", r1); ("R2", r2) ])
      (pair (rel_gen 0) (pair (rel_gen 1) (rel_gen 2)))

  let changes_gen =
    (* Signed deltas whose deletions may exceed the db contents are legal
       inputs to Delta.eval but make apply floor; generate update lists
       against a concrete db instead to stay exact. *)
    let update_gen db =
      let rel_name = oneofl relations in
      rel_name >>= fun r ->
      let existing = Bag.to_list (Relation.contents (Database.find db r)) in
      let insert =
        map (fun t -> Update.insert r t) (Gen.int_tuple ~arity:2 ~range:4)
      in
      match existing with
      | [] -> insert
      | _ ->
        oneof
          [ insert;
            map (fun t -> Update.delete r t) (oneofl existing);
            map2
              (fun before after -> Update.modify r ~before ~after)
              (oneofl existing)
              (Gen.int_tuple ~arity:2 ~range:4) ]
    in
    fun db ->
      (* Thread the evolving database through so deletes and modifies
         always target live tuples. *)
      let rec chain db n acc =
        if n = 0 then return (List.rev acc)
        else
          update_gen db >>= fun u ->
          chain (Database.apply_update db u) (n - 1) (u :: acc)
      in
      int_range 1 5 >>= fun n -> chain db n []

  let expr_gen =
    let rel k = Query.Algebra.base (Printf.sprintf "R%d" k) in
    let leaf = map rel (int_range 0 2) in
    (* Predicates over a set of attribute indices known to exist in the
       expression they select over. *)
    let pred_on ks =
      map2
        (fun k v -> Query.Pred.le (Printf.sprintf "a%d" k) (Value.Int v))
        (oneofl ks) (int_range 0 3)
    in
    oneof
      [ leaf;
        (int_range 0 2 >>= fun k ->
         map
           (fun p -> Query.Algebra.select p (rel k))
           (pred_on [ k; k + 1 ]));
        return (Query.Algebra.join (rel 0) (rel 1));
        return (Query.Algebra.join_all [ rel 0; rel 1; rel 2 ]);
        return
          (Query.Algebra.project [ "a1"; "a2" ]
             (Query.Algebra.join (rel 0) (rel 1)));
        map
          (fun p -> Query.Algebra.select p (Query.Algebra.join (rel 1) (rel 2)))
          (pred_on [ 1; 2; 3 ]);
        return
          (Query.Algebra.union
             (Query.Algebra.project [ "a1" ] (rel 0))
             (Query.Algebra.project [ "a1" ] (rel 1))) ]
end
