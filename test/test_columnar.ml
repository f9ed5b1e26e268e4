open Relational

let case = Helpers.case

(* ---- value interning ---- *)

let value_gen =
  QCheck2.Gen.(
    oneof
      [ Helpers.Gen.small_value;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Value.String s) (string_size (int_range 0 6)) ])

let intern_tests =
  [ Helpers.qcheck ~count:300 "intern/of_id round-trips"
      value_gen
      (fun v -> Value.equal v (Value.of_id (Value.intern v)));
    Helpers.qcheck ~count:300 "id equality decides value equality"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) ->
        Value.equal_ids (Value.intern a) (Value.intern b) = Value.equal a b);
    Helpers.qcheck ~count:300 "compare_ids is consistent with Value.compare"
      QCheck2.Gen.(pair value_gen value_gen)
      (fun (a, b) ->
        compare
          (compare (Value.compare_ids (Value.intern a) (Value.intern b)) 0)
          (compare (Value.compare a b) 0)
        = 0);
    case "NaN interns to a single id" (fun () ->
        let a = Value.intern (Value.Float Float.nan)
        and b = Value.intern (Value.Float Float.nan) in
        Alcotest.(check int) "same id" a b;
        Alcotest.(check bool) "round-trips" true
          (Value.equal (Value.Float Float.nan) (Value.of_id a)));
    case "interning a known value grows no dictionary entry" (fun () ->
        let v = Value.String "columnar-dict-growth-probe" in
        let _ = Value.intern v in
        let before = Value.interned_count () in
        let _ = Value.intern v and _ = Value.intern (Value.Int 123456789) in
        Alcotest.(check int) "count unchanged" before
          (Value.interned_count ()));
    case "null_id is intern Null" (fun () ->
        Alcotest.(check int) "fixed" Value.null_id (Value.intern Value.Null))
  ]

(* ---- chunk round-trips and scans ---- *)

let bag_gen = Helpers.Gen.small_bag ~arity:3 ~range:5

let signed_gen = Helpers.Gen.small_signed ~arity:3 ~range:5

let chunk_tests =
  [ Helpers.qcheck "of_bag/to_bag round-trips" bag_gen (fun b ->
        Bag.equal b (Columnar.to_bag (Columnar.of_bag ~arity:3 b)));
    Helpers.qcheck "of_signed/to_signed round-trips" signed_gen (fun s ->
        Signed_bag.equal s (Columnar.to_signed (Columnar.of_signed ~arity:3 s)));
    Helpers.qcheck "project matches the boxed projection" bag_gen (fun b ->
        let positions = [| 2; 0 |] in
        Bag.equal
          (Bag.map (Tuple.project_pos positions) b)
          (Columnar.to_bag
             (Columnar.project positions (Columnar.of_bag ~arity:3 b))));
    Helpers.qcheck "append matches Signed_bag.sum"
      QCheck2.Gen.(pair signed_gen signed_gen)
      (fun (a, b) ->
        Signed_bag.equal (Signed_bag.sum a b)
          (Columnar.to_signed
             (Columnar.append (Columnar.of_signed ~arity:3 a)
                (Columnar.of_signed ~arity:3 b))));
    Helpers.qcheck "filter on a key id matches the boxed filter" bag_gen
      (fun b ->
        let want = Value.intern (Value.Int 2) in
        let c = Columnar.of_bag ~arity:3 b in
        Bag.equal
          (Bag.filter (fun tup -> Value.equal (Tuple.get tup 1) (Value.Int 2)) b)
          (Columnar.to_bag
             (Columnar.filter ~keep:(fun row -> Columnar.get c 1 row = want) c)));
    Helpers.qcheck "hash_partition is a partition that respects keys"
      signed_gen
      (fun s ->
        let c = Columnar.of_signed ~arity:3 s in
        let parts = Columnar.hash_partition ~shards:3 ~key_pos:[| 0; 2 |] c in
        (* Re-uniting the shards loses nothing... *)
        Signed_bag.equal s
          (Columnar.to_signed
             (Array.fold_left Columnar.append (Columnar.empty ~arity:3) parts))
        (* ...and equal keys never straddle shards: partitioning a
           shard again with the same key positions is the identity on
           occupancy. *)
        && Array.for_all
             (fun part ->
               let again =
                 Columnar.hash_partition ~shards:3 ~key_pos:[| 0; 2 |] part
               in
               Array.exists (fun p -> Columnar.length p = Columnar.length part)
                 again)
             parts);
    case "builder drops zero-multiplicity rows and batches the rest"
      (fun () ->
        let b = Columnar.Builder.create 2 in
        Columnar.Builder.push_row b
          [| Value.intern (Value.Int 1); Value.null_id |]
          2;
        Columnar.Builder.push_row b [| Value.null_id; Value.null_id |] 0;
        Columnar.Builder.push_row b
          [| Value.intern (Value.Int 3); Value.null_id |]
          (-1);
        Alcotest.(check int) "builder length" 2 (Columnar.Builder.length b);
        let c = Columnar.Builder.finish b in
        Alcotest.(check int) "rows" 2 (Columnar.length c);
        Alcotest.(check int) "total" 1 (Columnar.total c);
        Alcotest.(check Helpers.signed_bag) "contents"
          (Signed_bag.of_list
             [ (Tuple.of_list [ Value.Int 1; Value.Null ], 2);
               (Tuple.of_list [ Value.Int 3; Value.Null ], -1) ])
          (Columnar.to_signed c)) ]

(* ---- chunk sharing across relation versions ---- *)

let sharing_tests =
  [ case "Relation.columnar encodes once per version" (fun () ->
        let r = Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ]; [ 2 ] ] in
        let builds0 = Columnar.chunk_builds () in
        let c1 = Relation.columnar r in
        let c2 = Relation.columnar r in
        Alcotest.(check bool) "same chunk" true (c1 == c2);
        Alcotest.(check int) "one encode" (builds0 + 1)
          (Columnar.chunk_builds ()));
    case "an empty delta preserves the relation and its chunk" (fun () ->
        let r = Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ] ] in
        let c = Relation.columnar r in
        let r' = Relation.apply_delta Signed_bag.zero r in
        Alcotest.(check bool) "same record" true (r == r');
        Alcotest.(check bool) "same chunk" true (c == Relation.columnar r'));
    case "a real delta yields a fresh chunk" (fun () ->
        let r = Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ] ] in
        let c = Relation.columnar r in
        let r' =
          Relation.apply_delta (Signed_bag.singleton (Tuple.ints [ 2 ]) 1) r
        in
        Alcotest.(check bool) "new chunk" true (c != Relation.columnar r'));
    case "Relation.index is memoized per key positions" (fun () ->
        let r =
          Helpers.rel (Helpers.int_schema [ "x"; "y" ]) [ [ 1; 2 ]; [ 1; 3 ] ]
        in
        let i1 = Relation.index r ~key_pos:[| 0 |] in
        let i2 = Relation.index r ~key_pos:[| 0 |] in
        let j = Relation.index r ~key_pos:[| 1 |] in
        Alcotest.(check bool) "same index" true (i1 == i2);
        Alcotest.(check bool) "distinct key set, distinct index" true (i1 != j);
        Alcotest.(check int) "x keys" 1 (Bag_index.n_keys i1);
        Alcotest.(check int) "y keys" 2 (Bag_index.n_keys j)) ]

(* ---- allocation-free empty-delta fast paths ---- *)

(* Pin the fast paths by physical equality (the strongest no-work
   observable) and by minor-heap growth: the measurement itself boxes a
   couple of floats, so allow a few words of slack but nothing that
   would admit a fold over the operands. *)
let alloc_slack = 64.0

let empty_delta_tests =
  [ case "Signed_bag.sum with a zero operand returns the other" (fun () ->
        let d = Signed_bag.singleton (Tuple.ints [ 1 ]) 2 in
        Alcotest.(check bool) "right zero" true
          (Signed_bag.sum d Signed_bag.zero == d);
        Alcotest.(check bool) "left zero" true
          (Signed_bag.sum Signed_bag.zero d == d));
    case "Signed_bag.apply of a zero delta returns the bag" (fun () ->
        let b = Helpers.bag_of [ [ 1 ]; [ 2 ] ] in
        Alcotest.(check bool) "same bag" true
          (Signed_bag.apply Signed_bag.zero b == b));
    case "Signed_bag.sum of two zero deltas allocates nothing" (fun () ->
        let before = Gc.minor_words () in
        let s = Signed_bag.sum Signed_bag.zero Signed_bag.zero in
        let after = Gc.minor_words () in
        Alcotest.(check bool) "zero result" true (Signed_bag.is_zero s);
        Alcotest.(check bool) "no allocation" true
          (after -. before <= alloc_slack)) ]

(* ---- Bag_index probe paths ---- *)

let index_tests =
  [ Helpers.qcheck "fold_ids matches find"
      QCheck2.Gen.(pair bag_gen (Helpers.Gen.int_tuple ~arity:2 ~range:5))
      (fun (b, key) ->
        let idx = Bag_index.of_bag ~key_pos:[| 0; 2 |] b in
        let ids =
          Array.init 2 (fun i -> Value.intern (Tuple.get key i))
        in
        let via_fold =
          Bag_index.fold_ids idx ids
            (fun tup n acc -> Signed_bag.add tup n acc)
            Signed_bag.zero
        in
        let via_find =
          List.fold_left
            (fun acc (tup, n) -> Signed_bag.add tup n acc)
            Signed_bag.zero (Bag_index.find idx key)
        in
        Signed_bag.equal via_fold via_find) ]

(* ---- Derived indexes: the chain oracle ---- *)

(* One entry of a derivation step, resolved against the parent's live
   tuples when the step is built: an insertion (a fresh tuple or a
   re-insertion), a deletion of a live tuple (by position, possibly of
   more copies than it holds: a clamp), a modify (a live tuple out, a
   tuple in, in one step), or a deletion of a tuple the parent may not
   hold. *)
type derive_op =
  | Ins of Tuple.t * int
  | Del of int * int
  | Modify of int * Tuple.t
  | Del_any of Tuple.t

let derive_tuple_gen = Helpers.Gen.int_tuple ~arity:2 ~range:6

let derive_op_gen =
  QCheck2.Gen.(
    oneof
      [ map2 (fun t n -> Ins (t, n)) derive_tuple_gen (int_range 1 2);
        map2 (fun i n -> Del (i, n)) nat (int_range 1 3);
        map2 (fun i t -> Modify (i, t)) nat derive_tuple_gen;
        map (fun t -> Del_any t) derive_tuple_gen ])

(* A root bag, then steps: each derives from a version picked by the
   int (mostly the latest, so chains run long enough to cross a
   flatten; otherwise any earlier one, so parents get several
   children). *)
let derive_chain_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 24) derive_tuple_gen)
      (list_size (int_range 1 70)
         (pair (int_range 0 99) (list_size (int_range 1 4) derive_op_gen))))

let step_of_ops bag ops =
  let live = Array.of_list (Bag.to_list bag) in
  let pick i = live.(i mod Array.length live) in
  List.fold_left
    (fun acc op ->
      match op with
      | Ins (t, n) -> Signed_bag.add t n acc
      | Del (i, n) when live <> [||] -> Signed_bag.add (pick i) (-n) acc
      | Modify (i, t) when live <> [||] ->
        Signed_bag.add t 1 (Signed_bag.add (pick i) (-1) acc)
      | Del _ | Modify _ -> acc
      | Del_any t -> Signed_bag.add t (-1) acc)
    Signed_bag.zero ops

(* The oracle's probes: every key of the domain plus one never
   generated, over a one-column and a two-column key. *)
let derive_key_sets =
  let domain = List.init 7 Fun.id in
  [ ([| 0 |], List.map (fun k -> [ k ]) domain);
    ( [| 1; 0 |],
      List.concat_map (fun a -> List.map (fun b -> [ a; b ]) domain) domain ) ]

let derive_chain_prop (root, steps) =
  let schema = Helpers.int_schema [ "a"; "b" ] in
  let root = Relation.of_tuples schema root in
  List.iter
    (fun (key_pos, _) -> ignore (Relation.index root ~key_pos))
    derive_key_sets;
  (* Every version descends from the root, so every probe below must
     find a derived index: a build would make the oracle vacuous. *)
  let builds = Relation.index_builds () in
  let answers rel =
    List.concat_map
      (fun (key_pos, keys) ->
        let idx = Relation.index rel ~key_pos
        and fresh = Bag_index.of_bag ~key_pos (Relation.contents rel) in
        List.map
          (fun key ->
            let ids =
              Array.of_list (List.map (fun v -> Value.intern (Value.Int v)) key)
            in
            let probe i =
              Bag_index.fold_ids i ids
                (fun tup n acc -> Signed_bag.add tup n acc)
                Signed_bag.zero
            in
            (probe idx, probe fresh))
          keys)
      derive_key_sets
  in
  let check what rel =
    List.iter
      (fun (got, want) ->
        if not (Signed_bag.equal got want) then
          QCheck2.Test.fail_reportf "%s: probe %a, fresh index %a" what
            Signed_bag.pp got Signed_bag.pp want)
      (answers rel);
    let live =
      (Bag_index.occupancy (Relation.index rel ~key_pos:[| 0 |])).Bag_index.live
    in
    let distinct = List.length (Bag.to_counted_list (Relation.contents rel)) in
    if live <> distinct then
      QCheck2.Test.fail_reportf "%s: %d live entries, %d distinct tuples" what
        live distinct;
    if Relation.index_builds () <> builds then
      QCheck2.Test.fail_reportf "%s: an index was built, not derived" what
  in
  check "root" root;
  let versions = ref [| (root, List.map fst (answers root)) |] in
  List.iteri
    (fun i (pick, ops) ->
      let n = Array.length !versions in
      let parent, _ = !versions.(if pick < 75 then n - 1 else pick mod n) in
      let step = step_of_ops (Relation.contents parent) ops in
      let child = Relation.derive step parent in
      if
        not
          (Bag.equal (Relation.contents child)
             (Signed_bag.apply step (Relation.contents parent)))
      then QCheck2.Test.fail_reportf "step %d: contents diverged" i;
      check (Printf.sprintf "step %d" i) child;
      versions :=
        Array.append !versions [| (child, List.map fst (answers child)) |])
    steps;
  (* Deriving children changed no earlier version's answers. *)
  Array.iteri
    (fun i (rel, recorded) ->
      check (Printf.sprintf "version %d, re-probed" i) rel;
      if not (List.equal Signed_bag.equal recorded (List.map fst (answers rel)))
      then
        QCheck2.Test.fail_reportf
          "version %d answers changed after its children" i)
    !versions;
  true

let derive_tests =
  [ Helpers.qcheck ~count:300 "derived indexes probe like fresh builds along delta chains"
      derive_chain_gen derive_chain_prop;
    case "a long chain crosses a flatten and stays exact" (fun () ->
        let f0 = Bag_index.flattens () in
        let root = List.init 20 (fun i -> Tuple.ints [ i mod 6; i ]) in
        let steps =
          List.init 40 (fun i ->
              ( 0,
                [ Ins (Tuple.ints [ i mod 7; 100 + i ], 1);
                  Del_any (Tuple.ints [ i mod 6; i ]) ] ))
        in
        Alcotest.(check bool) "oracle holds" true (derive_chain_prop (root, steps));
        Alcotest.(check bool) "flattened at least once" true
          (Bag_index.flattens () > f0));
    case "a 1-row Delta.apply on a 10k-row cache allocates O(|delta|)"
      (fun () ->
        let schema = Helpers.int_schema [ "k"; "v" ] in
        let rel =
          Relation.of_tuples schema
            (List.init 10_000 (fun i -> Tuple.ints [ i mod 1000; i ]))
        in
        let idx = Relation.index rel ~key_pos:[| 0 |] in
        let cache = Database.of_list [ ("R", rel) ] in
        let changes =
          Query.Delta.changes_of_list
            [ ("R", Signed_bag.singleton (Tuple.ints [ 7; -1 ]) 1) ]
        in
        (* A rebuild would allocate the index's arrays: 4 words per row
           and 2 per slot, over 60,000 words at 10k rows. *)
        let budget = 1_000.0 in
        let post, words =
          Helpers.words_allocated (fun () -> Query.Delta.apply cache changes)
        in
        if words > budget then
          Alcotest.failf "Delta.apply allocated %.0f words; budget %.0f" words
            budget;
        let builds = Relation.index_builds () in
        let post_rel = Database.find post "R" in
        let derived = Relation.index post_rel ~key_pos:[| 0 |] in
        Alcotest.(check int) "the probe built no index" builds
          (Relation.index_builds ());
        Alcotest.(check int) "one overlaid entry" 1
          (Bag_index.occupancy derived).Bag_index.overlay;
        Alcotest.(check int) "the key sees the insert" 11
          (List.length (Bag_index.find derived (Tuple.ints [ 7 ])));
        Alcotest.(check int) "the parent does not" 10
          (List.length (Bag_index.find idx (Tuple.ints [ 7 ])))) ]

let tests =
  intern_tests @ chunk_tests @ sharing_tests @ empty_delta_tests @ index_tests
  @ derive_tests
