open Relational
open Query

let case = Helpers.case

module Vm = Serve.Version_manager
module Cache = Serve.Result_cache
module Session = Serve.Session

(* A warehouse state with one view V holding the tuples 0..k-1, so the
   version published k-th in a test is trivially distinguishable. *)
let db k =
  Database.of_list
    [ ("V",
       Helpers.rel (Helpers.int_schema [ "x" ]) (List.init k (fun i -> [ i ]))) ]

let card_v state = Relation.cardinal (Database.find state "V")

let q = Algebra.base "V"

(* A manager with versions 0..n published at times 1.0, 2.0, ...; version
   i carries i+1 tuples. *)
let vm_with ?retention n =
  let vm = Vm.create ?retention (db 1) in
  for i = 1 to n do
    ignore (Vm.publish vm ~time:(float_of_int i) ~changed:[ "V" ] (db (i + 1)))
  done;
  vm

let version_manager_tests =
  [ case "publish numbers versions; find retrieves them" (fun () ->
        let vm = vm_with 2 in
        Alcotest.(check int) "count" 3 (Vm.version_count vm);
        Alcotest.(check int) "latest" 2 (Vm.latest vm).Vm.index;
        Alcotest.(check int) "v0 state" 1 (card_v (Vm.find vm 0).Vm.state);
        Alcotest.(check int) "v2 state" 3 (card_v (Vm.find vm 2).Vm.state);
        Alcotest.(check (float 1e-9)) "v1 time" 1.0 (Vm.find vm 1).Vm.time;
        Alcotest.(check bool) "beyond latest" true
          (match Vm.find vm 3 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "as_of serves the version visible at an instant" (fun () ->
        let vm = vm_with 2 in
        Alcotest.(check int) "before first" 0 (Vm.as_of vm 0.5).Vm.index;
        Alcotest.(check int) "between" 1 (Vm.as_of vm 1.5).Vm.index;
        Alcotest.(check int) "exact is inclusive" 1 (Vm.as_of vm 1.0).Vm.index;
        Alcotest.(check int) "after last" 2 (Vm.as_of vm 99.0).Vm.index);
    case "as_of ties resolve to the highest index" (fun () ->
        let vm = Vm.create (db 1) in
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "V" ] (db 2));
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "V" ] (db 3));
        ignore (Vm.publish vm ~time:3.0 ~changed:[ "V" ] (db 4));
        Alcotest.(check int) "latest of the tied pair" 2
          (Vm.as_of vm 1.0).Vm.index;
        Alcotest.(check int) "its state" 3 (card_v (Vm.as_of vm 1.0).Vm.state));
    case "publish with a decreasing time is rejected" (fun () ->
        let vm = vm_with 2 in
        Alcotest.(check bool) "raises" true
          (match Vm.publish vm ~time:1.5 ~changed:[] (db 9) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "Keep_last prunes old versions and advances the watermark" (fun () ->
        let vm = vm_with ~retention:(Vm.Keep_last 2) 3 in
        Alcotest.(check int) "retained" 2 (Vm.retained vm);
        Alcotest.(check int) "watermark" 2 (Vm.watermark vm);
        Alcotest.(check int) "count includes pruned" 4 (Vm.version_count vm);
        Alcotest.(check bool) "find below watermark" true
          (match Vm.find vm 1 with exception Vm.Pruned 1 -> true | _ -> false);
        Alcotest.(check bool) "as_of below watermark" true
          (match Vm.as_of vm 1.5 with
          | exception Vm.Pruned _ -> true
          | _ -> false);
        Alcotest.(check int) "as_of above watermark" 3 (Vm.as_of vm 9.0).Vm.index;
        Alcotest.(check int) "oldest_live" 2 (Vm.oldest_live vm).Vm.index);
    case "Keep_last n < 1 is rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (match Vm.create ~retention:(Vm.Keep_last 0) (db 1) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "a pinned version survives pruning until unpinned" (fun () ->
        let vm = Vm.create ~retention:(Vm.Keep_last 1) (db 1) in
        ignore (Vm.pin vm 0);
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "V" ] (db 2));
        ignore (Vm.publish vm ~time:2.0 ~changed:[ "V" ] (db 3));
        Alcotest.(check int) "watermark held at the pin" 0 (Vm.watermark vm);
        Alcotest.(check int) "pinned" 1 (Vm.pinned vm);
        Alcotest.(check int) "pinned state readable" 1
          (card_v (Vm.find vm 0).Vm.state);
        Vm.unpin vm 0;
        Alcotest.(check int) "pruning resumes" 2 (Vm.watermark vm);
        Alcotest.(check int) "nothing pinned" 0 (Vm.pinned vm);
        Alcotest.(check bool) "now pruned" true
          (match Vm.find vm 0 with exception Vm.Pruned 0 -> true | _ -> false));
    case "leases nest per version" (fun () ->
        let vm = Vm.create ~retention:(Vm.Keep_last 1) (db 1) in
        ignore (Vm.pin vm 0);
        ignore (Vm.pin vm 0);
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "V" ] (db 2));
        Vm.unpin vm 0;
        Alcotest.(check int) "still held by the second lease" 0 (Vm.watermark vm);
        Vm.unpin vm 0;
        Alcotest.(check int) "released" 1 (Vm.watermark vm);
        Alcotest.(check bool) "unbalanced unpin" true
          (match Vm.unpin vm 1 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "oldest_at_least finds the most cache-friendly fresh version"
      (fun () ->
        let vm = vm_with 3 in
        Alcotest.(check int) "mid" 2 (Vm.oldest_at_least vm 1.5).Vm.index;
        Alcotest.(check int) "exact" 1 (Vm.oldest_at_least vm 1.0).Vm.index;
        Alcotest.(check int) "all fresh enough" 0
          (Vm.oldest_at_least vm 0.0).Vm.index;
        Alcotest.(check int) "nothing fresh enough: latest" 3
          (Vm.oldest_at_least vm 9.0).Vm.index);
    Helpers.qcheck ~count:200 "as_of binary search matches a linear oracle"
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 12) (int_range 0 5))
          (int_range (-2) 40))
      (fun (gaps, instant10) ->
        let vm = Vm.create (db 1) in
        let time = ref 0.0 in
        let times =
          List.mapi
            (fun i gap ->
              time := !time +. (float_of_int gap /. 2.0);
              ignore (Vm.publish vm ~time:!time ~changed:[ "V" ] (db (i + 2)));
              !time)
            gaps
        in
        let instant = float_of_int instant10 /. 10.0 in
        (* Oracle: highest index whose time <= instant; version 0 when
           even that fails (the documented before-history fallback). *)
        let expected =
          List.fold_left
            (fun acc (i, t) -> if t <= instant then i else acc)
            0
            (List.mapi (fun i t -> (i + 1, t)) times)
        in
        (Vm.as_of vm instant).Vm.index = expected);
    case "retained versions share column chunks for unchanged relations"
      (fun () ->
        let r0 = Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ]; [ 2 ] ]
        and s = Helpers.rel (Helpers.int_schema [ "y" ]) [ [ 10 ] ] in
        let state0 = Database.of_list [ ("R", r0); ("S", s) ] in
        let vm = Vm.create state0 in
        (* Each publish rebinds R through a delta and leaves S's record
           (hence its chunk and indexes) untouched. *)
        let bump i state =
          let r' =
            Relation.apply_delta
              (Signed_bag.singleton (Tuple.ints [ 100 + i ]) 1)
              (Database.find state "R")
          in
          Database.add "R" r' state
        in
        let s1 = bump 1 state0 in
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "R" ] s1);
        ignore (Vm.publish vm ~time:2.0 ~changed:[ "R" ] (bump 2 s1));
        let stats = Vm.chunk_stats vm in
        Alcotest.(check int) "slots" 6 stats.Vm.slots;
        (* Three R versions, one shared S chunk. *)
        Alcotest.(check int) "distinct" 4 stats.Vm.distinct;
        let chunk_s i =
          Relation.columnar (Database.find (Vm.find vm i).Vm.state "S")
        in
        Alcotest.(check bool) "S chunk shared by pointer" true
          (chunk_s 0 == chunk_s 2)) ]

let bag_v k = Helpers.bag_of (List.init k (fun i -> [ i ]))

let result_cache_tests =
  [ case "store then find at the same version hits" (fun () ->
        let c = Cache.create () in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 2);
        (match Cache.find c ~version:1 q with
        | Some b -> Alcotest.check Helpers.bag "cached" (bag_v 2) b
        | None -> Alcotest.fail "expected a hit");
        let s = Cache.stats c in
        Alcotest.(check int) "hits" 1 s.Cache.hits;
        Alcotest.(check int) "entries" 1 s.Cache.entries);
    case "an entry stays valid across versions that left its views alone"
      (fun () ->
        let c = Cache.create () in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 2);
        Cache.note_change c ~view:"W" ~version:3;
        Alcotest.(check bool) "hit at a later version" true
          (Cache.find c ~version:5 q <> None));
    case "a support-view change invalidates exactly the affected interval"
      (fun () ->
        let c = Cache.create () in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 2);
        Cache.note_change c ~view:"V" ~version:3;
        Alcotest.(check bool) "valid before the change" true
          (Cache.find c ~version:2 q <> None);
        Alcotest.(check bool) "invalid at the change" true
          (Cache.find c ~version:3 q = None);
        Alcotest.(check bool) "invalid after the change" true
          (Cache.find c ~version:5 q = None);
        let s = Cache.stats c in
        Alcotest.(check int) "stale counted" 2 s.Cache.stale);
    case "validity works backwards: older reads reuse newer results"
      (fun () ->
        let c = Cache.create () in
        Cache.note_change c ~view:"V" ~version:1;
        Cache.store c ~version:5 ~support:[ "V" ] q (bag_v 6);
        Alcotest.(check bool) "valid at an older version" true
          (Cache.find c ~version:2 q <> None);
        Alcotest.(check bool) "but not across the change" true
          (Cache.find c ~version:0 q = None));
    case "capacity evicts the oldest-inserted entry" (fun () ->
        let c = Cache.create ~capacity:2 () in
        let q1 = Algebra.base "A" and q2 = Algebra.base "B" in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 1);
        Cache.store c ~version:1 ~support:[ "A" ] q1 (bag_v 1);
        Cache.store c ~version:1 ~support:[ "B" ] q2 (bag_v 1);
        let s = Cache.stats c in
        Alcotest.(check int) "evictions" 1 s.Cache.evictions;
        Alcotest.(check int) "entries" 2 s.Cache.entries;
        Alcotest.(check bool) "oldest gone" true (Cache.find c ~version:1 q = None);
        Alcotest.(check bool) "newest kept" true
          (Cache.find c ~version:1 q2 <> None));
    case "commit advances valid entries in place, exactly" (fun () ->
        let c = Cache.create () in
        let q2 = Algebra.select (Pred.le "x" (Value.Int 1)) (Algebra.base "V") in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 3);
        Cache.store c ~version:1 ~support:[ "V" ] q2
          (Helpers.bag_of [ [ 0 ]; [ 1 ] ]);
        (* db 3 -> db 4 inserts one tuple into V: width 1 <= both cached
           cardinalities, so both entries refresh rather than invalidate. *)
        Cache.commit c ~version:2 ~changed:[ "V" ] ~pre:(db 3) ~post:(db 4);
        let s = Cache.stats c in
        Alcotest.(check int) "both entries refreshed" 2 s.Cache.refreshed;
        Alcotest.(check int) "no fallbacks" 0 s.Cache.refresh_fallbacks;
        (match Cache.find c ~version:2 q with
        | Some b ->
          Alcotest.check Helpers.bag "bit-for-bit the recompute" (bag_v 4) b
        | None -> Alcotest.fail "expected a refreshed hit");
        (match Cache.find c ~version:2 q2 with
        | Some b ->
          Alcotest.check Helpers.bag "selection delta filtered away"
            (Helpers.bag_of [ [ 0 ]; [ 1 ] ])
            b
        | None -> Alcotest.fail "expected a refreshed hit");
        (* The refresh adds a snapshot at version 2 beside the one at
           version 1, so a read pinned before the commit still hits. *)
        match Cache.find c ~version:1 q with
        | Some b ->
          Alcotest.check Helpers.bag "pre-commit reads hit the version-1 bag"
            (bag_v 3) b
        | None -> Alcotest.fail "expected a pre-commit hit");
    case "refresh falls back when the delta outweighs the cached result"
      (fun () ->
        let c = Cache.create () in
        Cache.store c ~version:1 ~support:[ "V" ] q (bag_v 1);
        (* db 1 -> db 5 inserts four tuples: width 4 > |cached| = 1, so the
           entry is left to plain invalidation. *)
        Cache.commit c ~version:2 ~changed:[ "V" ] ~pre:(db 1) ~post:(db 5);
        let s = Cache.stats c in
        Alcotest.(check int) "fallback counted" 1 s.Cache.refresh_fallbacks;
        Alcotest.(check int) "nothing refreshed" 0 s.Cache.refreshed;
        Alcotest.(check bool) "entry invalidated at the new version" true
          (Cache.find c ~version:2 q = None);
        Alcotest.(check bool) "still valid at its own version" true
          (Cache.find c ~version:1 q <> None)) ]

(* ---- Result-cache chains: refresh, carried deltas, group state ---- *)

(* A two-view warehouse: V(x, y) changes, W(y, z) is a fixed dimension
   holding every y, so every change to V reaches the join below. *)
let chain_schema_v = Helpers.int_schema [ "x"; "y" ]

let chain_initial =
  Database.of_list
    [ ("V", Helpers.rel chain_schema_v [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 2 ]; [ 1; 0 ] ]);
      ("W",
       Helpers.rel (Helpers.int_schema [ "y"; "z" ])
         (List.init 4 (fun y -> [ y; y mod 2 ]))) ]

let q_sel = Algebra.select (Pred.lt "x" (Value.Int 2)) (Algebra.base "V")

let q_agg =
  Algebra.group_by ~keys:[ "x" ]
    ~aggregates:
      [ ("n", Algebra.Count); ("s", Algebra.Sum "y"); ("m", Algebra.Max "y") ]
    (Algebra.base "V")

let q_jagg =
  Algebra.group_by ~keys:[ "z" ]
    ~aggregates:[ ("s", Algebra.Sum "x"); ("lo", Algebra.Min "x") ]
    (Algebra.join (Algebra.base "V") (Algebra.base "W"))

let chain_queries = [| Algebra.base "V"; q_sel; q_agg; q_jagg |]

let naive state expr = Eval.eval_bag ~naive:true state expr

(* The next state of [view] (V by default; W holds int pairs too): a
   few deletions of present tuples and a few insertions (many on a
   [wide] commit, so narrow cached results fall back to invalidation).
   [carried] builds the version through [Relation.apply_delta], as the
   store does; otherwise through [with_contents], which carries nothing
   and forces the diff. *)
let next_state ?(view = "V") rng ~wide ~carried state =
  let v = Database.find state view in
  let present = Bag.to_list (Relation.contents v) in
  let delta = ref Signed_bag.zero in
  let bag = ref (Relation.contents v) in
  for _ = 1 to Random.State.int rng 3 do
    if not (Bag.is_empty !bag) then begin
      let tup = List.nth present (Random.State.int rng (List.length present)) in
      if Bag.count !bag tup > 0 then begin
        delta := Signed_bag.add tup (-1) !delta;
        bag := Bag.remove tup !bag
      end
    end
  done;
  for _ = 1 to (if wide then 12 else 1 + Random.State.int rng 2) do
    delta :=
      Signed_bag.add
        (Helpers.ints [ Random.State.int rng 4; Random.State.int rng 4 ])
        1 !delta
  done;
  let v' =
    if carried then Relation.apply_delta !delta v
    else Relation.with_contents v (Signed_bag.apply !delta (Relation.contents v))
  in
  Database.add view v' state

(* Drive one cache through a random chain: every commit changes V; reads
   hit the latest version or an older one, and a miss re-stores the
   result at the version read, as a session does. Every hit must equal
   naive evaluation at its version. Returns the cache and how many
   commits carried their deltas. *)
let run_chain ~seed ~steps ~carried_only =
  let rng = Random.State.make [| seed |] in
  let c = Cache.create () in
  let states = ref [| chain_initial |] in
  let latest () = Array.length !states - 1 in
  let read version expr =
    let state = !states.(version) in
    match Cache.find c ~version expr with
    | Some b ->
      if not (Bag.equal b (naive state expr)) then
        Alcotest.failf "hit at version %d differs from naive evaluation of %a"
          version Algebra.pp expr
    | None ->
      Cache.store c ~version ~support:(Algebra.base_relations expr) expr
        (naive state expr)
  in
  Array.iter (read 0) chain_queries;
  for _ = 1 to steps do
    if Random.State.int rng 3 = 0 then begin
      let pre = !states.(latest ()) in
      let post =
        next_state rng
          ~wide:(Random.State.int rng 6 = 0)
          ~carried:(carried_only || Random.State.int rng 4 <> 0)
          pre
      in
      states := Array.append !states [| post |];
      Cache.commit c ~version:(latest ()) ~changed:[ "V" ] ~pre ~post
    end
    else begin
      let version =
        match Random.State.int rng 3 with
        | 0 -> Random.State.int rng (latest () + 1)
        | _ -> latest ()
      in
      read version chain_queries.(Random.State.int rng (Array.length chain_queries))
    end
  done;
  c

let chain_tests =
  [ Helpers.qcheck ~count:150 "every hit along a commit chain equals naive evaluation"
      QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
      (fun (seed, carried_only) ->
        let builds0 = Compiled.group_state_builds ()
        and drops0 = Compiled.group_state_drops () in
        let c = run_chain ~seed ~steps:60 ~carried_only in
        let s = Cache.stats c in
        let builds = Compiled.group_state_builds () - builds0 in
        (* Every commit changes V and reaches both aggregate nodes, so
           each aggregate entry builds its state once — at its first
           commit — and a clean chain never drops it. *)
        let commits = s.Cache.deltas_carried + s.Cache.deltas_diffed in
        (commits = 0 || builds = 2)
        && Compiled.group_state_drops () = drops0
        && ((not carried_only) || s.Cache.deltas_diffed = 0));
    case "a chain of carried commits diffs nothing and refreshes" (fun () ->
        let c = run_chain ~seed:7 ~steps:120 ~carried_only:true in
        let s = Cache.stats c in
        Alcotest.(check int) "nothing diffed" 0 s.Cache.deltas_diffed;
        Alcotest.(check bool) "deltas carried" true (s.Cache.deltas_carried > 0);
        Alcotest.(check bool) "entries refreshed" true (s.Cache.refreshed > 0);
        Alcotest.(check bool) "some fallbacks" true (s.Cache.refresh_fallbacks > 0));
    case "clear drops every group state" (fun () ->
        let c = run_chain ~seed:3 ~steps:60 ~carried_only:true in
        let drops0 = Compiled.group_state_drops ()
        and builds0 = Compiled.group_state_builds () in
        Cache.clear c;
        Alcotest.(check int) "both aggregate states dropped" 2
          (Compiled.group_state_drops () - drops0);
        Alcotest.(check int) "no entries" 0 (Cache.stats c).Cache.entries;
        (* Re-cached after the wipe, the aggregates build afresh. *)
        let pre = chain_initial in
        let post = next_state (Random.State.make [| 1 |]) ~wide:false ~carried:true pre in
        Array.iter
          (fun q ->
            Cache.store c ~version:0 ~support:(Algebra.base_relations q) q (naive pre q))
          chain_queries;
        Cache.commit c ~version:1 ~changed:[ "V" ] ~pre ~post;
        Alcotest.(check int) "rebuilt" 2 (Compiled.group_state_builds () - builds0);
        match Cache.find c ~version:1 q_agg with
        | Some b -> Alcotest.check Helpers.bag "refreshed" (naive post q_agg) b
        | None -> Alcotest.fail "expected a refreshed hit");
    case "a change that bypasses commit drops the group state" (fun () ->
        let c = Cache.create () in
        let insert tup state =
          Database.add "V"
            (Relation.apply_delta
               (Signed_bag.singleton (Helpers.ints tup) 1)
               (Database.find state "V"))
            state
        in
        let s0 = chain_initial in
        let s1 = insert [ 3; 3 ] s0 in
        let s2 = insert [ 0; 0 ] s1 in
        let s3 = insert [ 1; 3 ] s2 in
        Cache.store c ~version:0 ~support:[ "V" ] q_agg (naive s0 q_agg);
        Cache.commit c ~version:1 ~changed:[ "V" ] ~pre:s0 ~post:s1;
        (* Version 2 is only noted: the state still describes s1. *)
        Cache.note_change c ~view:"V" ~version:2;
        Cache.store c ~version:2 ~support:[ "V" ] q_agg (naive s2 q_agg);
        let drops0 = Compiled.group_state_drops () in
        Cache.commit c ~version:3 ~changed:[ "V" ] ~pre:s2 ~post:s3;
        Alcotest.(check int) "dropped" 1 (Compiled.group_state_drops () - drops0);
        match Cache.find c ~version:3 q_agg with
        | Some b -> Alcotest.check Helpers.bag "still exact" (naive s3 q_agg) b
        | None -> Alcotest.fail "expected a refreshed hit") ]

(* ---- Per-version snapshots under retention ---- *)

(* Drive one cache, bound to a [Keep_last keep] version manager, through
   a random chain of exact commits on V and W, with random pins and
   unpins in between. Reads go to random retained versions (pinned ones
   half the time); a miss stores the naive result at the version read,
   as a session does. Without [refresh], commits only note their views,
   so every snapshot comes from [store]. After every step: each hit
   equals naive evaluation at its version, [peek] agrees with [find] at
   every pinned version, and no entry keeps more snapshots than the
   manager retains versions, plus one. *)
let run_retained_chain ~seed ~keep ~refresh ~steps =
  let rng = Random.State.make [| seed |] in
  let vm = Vm.create ~retention:(Vm.Keep_last keep) chain_initial in
  let c = Cache.create () in
  Cache.bind c vm;
  let states = ref [| chain_initial |] in
  let latest () = Array.length !states - 1 in
  let pins = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec remove_one v = function
    | [] -> []
    | x :: rest -> if x = v then rest else x :: remove_one v rest
  in
  let read version expr =
    match Cache.find c ~version expr with
    | Some b ->
      if not (Bag.equal b (naive !states.(version) expr)) then
        Alcotest.failf "hit at version %d differs from naive evaluation of %a"
          version Algebra.pp expr
    | None ->
      Cache.store c ~version ~support:(Algebra.base_relations expr) expr
        (naive !states.(version) expr)
  in
  let check () =
    Array.iter
      (fun expr ->
        List.iter
          (fun p ->
            if Cache.peek c ~version:p expr <> (Cache.find c ~version:p expr <> None)
            then
              Alcotest.failf "peek disagrees with find at pinned version %d for %a"
                p Algebra.pp expr)
          !pins;
        let n = Cache.snapshot_count c expr in
        if n > Vm.retained vm + 1 then
          Alcotest.failf "%a keeps %d snapshots; %d versions retained"
            Algebra.pp expr n (Vm.retained vm))
      chain_queries
  in
  for _ = 1 to steps do
    (match Random.State.int rng 8 with
    | 0 | 1 | 2 ->
      let changed = pick [ [ "V" ]; [ "W" ]; [ "V"; "W" ] ] in
      let pre = !states.(latest ()) in
      let post =
        List.fold_left
          (fun state view ->
            next_state ~view rng ~wide:(Random.State.int rng 6 = 0)
              ~carried:true state)
          pre changed
      in
      states := Array.append !states [| post |];
      let v = Vm.publish vm ~time:(float_of_int (latest ())) ~changed post in
      if refresh then Cache.commit c ~version:v.Vm.index ~changed ~pre ~post
      else
        List.iter
          (fun view -> Cache.note_change c ~view ~version:v.Vm.index)
          changed
    | 3 ->
      let v = Vm.watermark vm + Random.State.int rng (Vm.retained vm) in
      ignore (Vm.pin vm v);
      pins := v :: !pins
    | 4 when !pins <> [] ->
      let v = pick !pins in
      pins := remove_one v !pins;
      Vm.unpin vm v
    | _ ->
      let version =
        if !pins <> [] && Random.State.bool rng then pick !pins
        else Vm.watermark vm + Random.State.int rng (Vm.retained vm)
      in
      read version chain_queries.(Random.State.int rng (Array.length chain_queries)));
    check ()
  done

let snapshot_tests =
  [ Helpers.qcheck ~count:100
      "per-version snapshots under retention match naive evaluation"
      QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 1 6) bool)
      (fun (seed, keep, refresh) ->
        run_retained_chain ~seed ~keep ~refresh ~steps:80;
        true);
    case "a historical read keeps the latest snapshot" (fun () ->
        let vm = vm_with 2 in
        let c = Cache.create () in
        List.iter (fun version -> Cache.note_change c ~view:"V" ~version) [ 1; 2 ];
        let s = Session.create ~cache:c ~guarantee:Session.Latest vm in
        Alcotest.(check bool) "cold latest read misses" false
          (Session.read s ~now:5.0 q).Session.cache_hit;
        let old = Session.read s ~now:5.0 ~as_of:1.0 q in
        Alcotest.(check int) "as_of serves version 1" 1 old.Session.version;
        Alcotest.(check bool) "cold historical read misses" false
          old.Session.cache_hit;
        let o = Session.read s ~now:5.0 q in
        Alcotest.(check bool) "latest still hits" true o.Session.cache_hit;
        Alcotest.check Helpers.bag "latest bag" (bag_v 3) o.Session.result;
        let o = Session.read s ~now:5.0 ~as_of:1.0 q in
        Alcotest.(check bool) "historical hits" true o.Session.cache_hit;
        Alcotest.check Helpers.bag "version-1 bag" (bag_v 2) o.Session.result;
        Alcotest.(check int) "two snapshots" 2 (Cache.stats c).Cache.snapshots);
    case "a cache serves one version history" (fun () ->
        let c = Cache.create () in
        let vm = vm_with 1 in
        ignore (Session.create ~cache:c ~guarantee:Session.Latest vm);
        ignore (Session.create ~cache:c ~guarantee:Session.Monotonic_reads vm);
        Alcotest.(check bool) "a second manager is rejected" true
          (match Session.create ~cache:c ~guarantee:Session.Latest (vm_with 1) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "retention drops snapshots below the watermark's floor" (fun () ->
        let vm = Vm.create ~retention:(Vm.Keep_last 2) (db 1) in
        let c = Cache.create () in
        Cache.bind c vm;
        Cache.store c ~version:0 ~support:[ "V" ] q (bag_v 1);
        for i = 1 to 4 do
          let pre = (Vm.latest vm).Vm.state in
          let v = Vm.publish vm ~time:(float_of_int i) ~changed:[ "V" ] (db (i + 1)) in
          Cache.commit c ~version:v.Vm.index ~changed:[ "V" ] ~pre ~post:v.Vm.state
        done;
        (* Versions 3 and 4 are retained: the floor at the watermark is
           the snapshot at 3 itself, so nothing older survives. *)
        Alcotest.(check int) "watermark" 3 (Vm.watermark vm);
        Alcotest.(check int) "snapshots" 2 (Cache.snapshot_count c q);
        (match Cache.find c ~version:3 q with
        | Some b -> Alcotest.check Helpers.bag "version 3" (bag_v 4) b
        | None -> Alcotest.fail "expected a hit at the watermark");
        (* Once the watermark passes them, the floor snapshot strictly
           below it stays and only the one under that goes. V holds
           still while versions 5 and 6 change another view, and a pin
           holds the watermark at 3 until all three snapshots exist. *)
        let still = (Vm.latest vm).Vm.state in
        let q_sel = Algebra.select (Pred.le "x" (Value.Int 1)) q in
        Cache.store c ~version:3 ~support:[ "V" ] q_sel
          (naive (Vm.find vm 3).Vm.state q_sel);
        Cache.store c ~version:4 ~support:[ "V" ] q_sel (naive still q_sel);
        ignore (Vm.pin vm 3);
        List.iter
          (fun version ->
            ignore
              (Vm.publish vm ~time:(float_of_int version) ~changed:[ "U" ] still);
            Cache.note_change c ~view:"U" ~version)
          [ 5; 6 ];
        Cache.store c ~version:6 ~support:[ "V" ] q_sel (naive still q_sel);
        Alcotest.(check int) "the pin keeps all three" 3
          (Cache.snapshot_count c q_sel);
        Vm.unpin vm 3;
        Alcotest.(check int) "watermark past the floor" 5 (Vm.watermark vm);
        Alcotest.(check int) "floor kept" 2 (Cache.snapshot_count c q_sel);
        Alcotest.(check bool) "hit at the watermark" true
          (Cache.find c ~version:5 q_sel <> None)) ]

(* ---- Allocation guard: a commit costs O(|delta|), not O(|view|) ---- *)

let words_allocated = Helpers.words_allocated

let big_view_rows = 10_000

let alloc_tests =
  [ case "a 1-row commit into a 10k-row view allocates O(|delta|)" (fun () ->
        let rel =
          Helpers.rel chain_schema_v
            (List.init big_view_rows (fun i -> [ i mod 1000; i ]))
        in
        let view_words =
          float_of_int (Obj.reachable_words (Obj.repr (Relation.contents rel)))
        in
        let budget = view_words /. 10.0 in
        let store = Warehouse.Store.create [ ("V", rel) ] in
        let vm = Vm.create (Warehouse.Store.snapshot store) in
        let cache = Cache.create () in
        let q_small = Algebra.select (Pred.lt "y" (Value.Int 5000)) (Algebra.base "V") in
        let queries = [ q_small; q_agg ] in
        let commit_one i =
          let pre = Warehouse.Store.snapshot store in
          let wt =
            Warehouse.Wt.make ~rows:[ i ]
              [ Action_list.delta ~view:"V" ~state:i
                  (Signed_bag.singleton (Helpers.ints [ 7; -i ]) 1) ]
          in
          let plan, plan_words =
            words_allocated (fun () -> Warehouse.Store.plan_run store [ wt ])
          in
          List.iter
            (fun (wt, state) -> Warehouse.Store.apply_planned store wt state)
            plan.Warehouse.Store.planned;
          let post = Warehouse.Store.snapshot store in
          let v, publish_words =
            words_allocated (fun () ->
                Vm.publish vm ~time:(float_of_int i) ~changed:[ "V" ] post)
          in
          let (), commit_words =
            words_allocated (fun () ->
                Cache.commit cache ~version:v.Vm.index ~changed:[ "V" ] ~pre ~post)
          in
          (plan_words, publish_words, commit_words)
        in
        List.iter
          (fun q ->
            Cache.store cache ~version:0 ~support:[ "V" ] q
              (naive (Warehouse.Store.snapshot store) q))
          queries;
        (* The first commit builds the aggregate's group state, once. *)
        ignore (commit_one 1);
        let plan_words, publish_words, commit_words = commit_one 2 in
        let within name words =
          if words >= budget then
            Alcotest.failf "%s allocated %.0f words; budget %.0f (a tenth of the view's %.0f)"
              name words budget view_words
        in
        within "Store.plan_run" plan_words;
        within "Version_manager.publish" publish_words;
        within "Result_cache.commit" commit_words;
        let s = Cache.stats cache in
        Alcotest.(check int) "both commits refreshed both entries" 4 s.Cache.refreshed;
        Alcotest.(check int) "nothing diffed" 0 s.Cache.deltas_diffed;
        List.iter
          (fun q ->
            match Cache.find cache ~version:2 q with
            | Some b ->
              Alcotest.check Helpers.bag "refreshed result"
                (naive (Warehouse.Store.snapshot store) q) b
            | None -> Alcotest.fail "expected a refreshed hit")
          queries;
        (* A historical read at the pre-commit version hits its own
           snapshot and leaves the latest one in place: the Latest read
           right after it is a lookup — O(1) words, no kernel work. *)
        let session = Session.create ~cache ~guarantee:Session.Latest vm in
        let old = Session.read session ~now:3.0 ~as_of:1.0 q_agg in
        Alcotest.(check int) "as_of serves the pre-commit version" 1
          old.Session.version;
        Alcotest.(check bool) "historical read hits" true old.Session.cache_hit;
        Alcotest.check Helpers.bag "historical result"
          (naive (Vm.find vm 1).Vm.state q_agg)
          old.Session.result;
        let kernel0 = Compiled.kernel_rows () in
        let latest, read_words =
          words_allocated (fun () -> Session.read session ~now:3.0 q_agg)
        in
        Alcotest.(check bool) "latest read hits" true latest.Session.cache_hit;
        Alcotest.(check int) "no kernel evaluation" 0
          (Compiled.kernel_rows () - kernel0);
        if read_words > 256.0 then
          Alcotest.failf "a latest hit allocated %.0f words; budget 256"
            read_words;
        (* A Base entry's refreshed snapshot is the store's own bag. *)
        let base_v = Algebra.base "V" in
        Cache.store cache ~version:2 ~support:[ "V" ] base_v
          (naive (Warehouse.Store.snapshot store) base_v);
        ignore (commit_one 3);
        match Cache.find cache ~version:3 base_v with
        | Some b ->
          Alcotest.(check bool) "refreshed by pointer to the store's bag" true
            (b
            == Relation.contents
                 (Database.find (Warehouse.Store.snapshot store) "V"))
        | None -> Alcotest.fail "expected a refreshed hit") ]

(* Session tests run against a manager with versions 0..2 at times 0, 1, 2
   carrying 1, 2, 3 tuples. *)
let session_tests =
  [ case "Latest serves the newest version" (fun () ->
        let vm = vm_with 2 in
        let s = Session.create ~guarantee:Session.Latest vm in
        let o = Session.read s ~now:5.0 q in
        Alcotest.(check int) "version" 2 o.Session.version;
        Alcotest.check Helpers.bag "contents" (bag_v 3) o.Session.result;
        Alcotest.(check (float 1e-9)) "staleness" 3.0 o.Session.staleness;
        Alcotest.(check bool) "not clamped" false o.Session.clamped);
    case "historical reads serve the version visible at the instant"
      (fun () ->
        let vm = vm_with 2 in
        let s = Session.create ~guarantee:Session.Latest vm in
        let o = Session.read s ~now:5.0 ~as_of:1.5 q in
        Alcotest.(check int) "version" 1 o.Session.version;
        Alcotest.check Helpers.bag "contents" (bag_v 2) o.Session.result);
    case "monotonic clamps historical reads up to the session token"
      (fun () ->
        let vm = vm_with 2 in
        let fresh = Session.create ~guarantee:Session.Monotonic_reads vm in
        let o = Session.read fresh ~now:5.0 ~as_of:1.5 q in
        Alcotest.(check int) "no token yet: honest history" 1 o.Session.version;
        Alcotest.(check bool) "not clamped" false o.Session.clamped;
        let s = Session.create ~guarantee:Session.Monotonic_reads vm in
        let o1 = Session.read s ~now:5.0 q in
        Alcotest.(check int) "current read" 2 o1.Session.version;
        Alcotest.(check int) "token advanced" 2 (Session.token s);
        let o2 = Session.read s ~now:5.0 ~as_of:1.5 q in
        Alcotest.(check int) "clamped to the token" 2 o2.Session.version;
        Alcotest.(check bool) "flagged" true o2.Session.clamped);
    case "bounded staleness serves the oldest admissible version" (fun () ->
        let vm = vm_with 2 in
        let s = Session.create ~guarantee:(Session.Bounded_staleness 2.0) vm in
        let o = Session.read s ~now:2.5 q in
        Alcotest.(check int) "oldest within the bound" 1 o.Session.version;
        Alcotest.(check bool) "bound respected" true
          (o.Session.staleness <= 2.0);
        let tight = Session.create ~guarantee:(Session.Bounded_staleness 0.1) vm in
        let o = Session.read tight ~now:2.5 q in
        Alcotest.(check int) "nothing fresh enough: latest" 2 o.Session.version);
    case "reads below the pruning watermark clamp to the oldest retained"
      (fun () ->
        let vm = vm_with ~retention:(Vm.Keep_last 1) 2 in
        let s = Session.create ~guarantee:Session.Latest vm in
        let o = Session.read s ~now:5.0 ~as_of:0.5 q in
        Alcotest.(check int) "oldest we still have" 2 o.Session.version;
        Alcotest.(check bool) "flagged" true o.Session.clamped);
    case "an in-flight read's lease survives concurrent pruning" (fun () ->
        let vm = Vm.create ~retention:(Vm.Keep_last 1) (db 1) in
        let s = Session.create ~guarantee:Session.Latest vm in
        let pending = Session.start s ~now:0.5 () in
        Alcotest.(check int) "selected version 0" 0
          (Session.pending_version pending).Vm.index;
        ignore (Vm.publish vm ~time:1.0 ~changed:[ "V" ] (db 2));
        ignore (Vm.publish vm ~time:2.0 ~changed:[ "V" ] (db 3));
        Alcotest.(check int) "prune blocked by the lease" 0 (Vm.watermark vm);
        let o = Session.complete s pending ~now:2.5 q in
        Alcotest.check Helpers.bag "evaluated against the leased state"
          (bag_v 1) o.Session.result;
        Alcotest.(check int) "lease released, prune resumed" 2 (Vm.watermark vm);
        Alcotest.(check bool) "double complete" true
          (match Session.complete s pending ~now:2.5 q with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "sessions sharing a cache share results" (fun () ->
        let vm = vm_with 2 in
        let cache = Cache.create () in
        let s1 = Session.create ~cache ~guarantee:Session.Latest vm in
        let s2 = Session.create ~cache ~guarantee:Session.Latest vm in
        let o1 = Session.read s1 ~now:5.0 q in
        Alcotest.(check bool) "first read misses" false o1.Session.cache_hit;
        let o2 = Session.read s2 ~now:5.0 q in
        Alcotest.(check bool) "second read hits" true o2.Session.cache_hit;
        Alcotest.check Helpers.bag "identical results" o1.Session.result
          o2.Session.result;
        Alcotest.check Helpers.bag "and correct"
          (Query.Eval.eval_bag ~naive:true (db 3) q)
          o2.Session.result);
    Helpers.qcheck ~count:150
      "monotonic sessions never observe a smaller commit index"
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Sim.Rng.create seed in
        let vm = Vm.create (db 1) in
        let s = Session.create ~guarantee:Session.Monotonic_reads vm in
        let time = ref 0.0 in
        let k = ref 1 in
        let last = ref 0 in
        let ok = ref true in
        for _ = 1 to 40 do
          if Sim.Rng.bool rng then begin
            time := !time +. Sim.Rng.float rng 1.0;
            incr k;
            ignore (Vm.publish vm ~time:!time ~changed:[ "V" ] (db !k))
          end
          else begin
            let as_of =
              if Sim.Rng.bool rng then
                Some (Sim.Rng.float rng (!time +. 1.0))
              else None
            in
            let o = Session.read s ~now:(!time +. 0.1) ?as_of q in
            if o.Session.version < !last then ok := false;
            last := max !last o.Session.version
          end
        done;
        !ok) ]

(* Full-system integration: concurrent readers against a live maintenance
   pipeline. *)

let records result =
  match result.Whips.System.serving with
  | Some sv -> sv.Whips.System.reads_served
  | None -> Alcotest.fail "expected serving to be attached"

(* Every served result must equal a naive re-evaluation of its query over
   the exact state it was served from — the compiled/cached read path
   cross-checked against the reference evaluator, read by read. *)
let check_read_results result =
  List.iter
    (fun r ->
      Alcotest.check Helpers.bag "read equals naive oracle"
        (Query.Eval.eval_bag ~naive:true r.Whips.System.read_state
           r.Whips.System.read_query)
        r.Whips.System.read_result)
    (records result)

(* Served snapshots, sorted by version and deduplicated, form a
   subsequence of the commit chain; prepending ws_0 and capping with the
   final state (the checker requires histories to end at ss_f, and reads
   may have stopped before the last commits) gives the checker a
   warehouse history that must be strongly consistent whenever the
   pipeline's merge kept MVC. *)
let check_served_snapshots result =
  let sorted =
    List.sort_uniq
      (fun a b ->
        compare a.Whips.System.read_version b.Whips.System.read_version)
      (records result)
  in
  let served =
    List.filter_map
      (fun r ->
        if r.Whips.System.read_version = 0 then None
        else Some r.Whips.System.read_state)
      sorted
  in
  let max_version =
    List.fold_left
      (fun acc r -> max acc r.Whips.System.read_version)
      0 sorted
  in
  let served =
    if max_version < Warehouse.Store.commit_count result.Whips.System.store
    then served @ [ Warehouse.Store.snapshot result.Whips.System.store ]
    else served
  in
  let ws0 = Warehouse.Store.initial result.Whips.System.store in
  let verdict =
    Consistency.Checker.check
      ~views:result.Whips.System.config.Whips.System.scenario.Workload.Scenarios.views
      ~transactions:result.Whips.System.transactions
      ~source_states:(Source.Sources.states result.Whips.System.sources)
      ~warehouse_states:(ws0 :: served)
  in
  Alcotest.(check bool)
    ("served snapshots consistent: " ^ verdict.Consistency.Checker.detail)
    true
    (Consistency.Checker.at_least Consistency.Checker.Strong verdict)

let system_tests =
  [ case "concurrent readers over a live run match the naive oracle"
      (fun () ->
        let cfg =
          { (Whips.System.default Workload.Scenarios.bank) with
            arrival = Whips.System.Poisson 40.0;
            reads = Some Whips.System.default_reads;
            seed = 11 }
        in
        let result = Whips.System.run cfg in
        Alcotest.(check bool) "drained" false result.Whips.System.stuck;
        Alcotest.(check int) "all reads served" 100
          (List.length (records result));
        Alcotest.(check int) "metrics agree" 100
          (Atomic.get result.Whips.System.metrics.Whips.Metrics.reads);
        check_read_results result;
        check_served_snapshots result);
    case "SPA with channel faults serves only consistent snapshots"
      (fun () ->
        let cfg =
          { (Whips.System.default Workload.Scenarios.paper_views) with
            merge_kind = Whips.System.Force_spa;
            arrival = Whips.System.Poisson 30.0;
            fault_plan =
              Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05
                ~delay:0.05 "*";
            reliability = Whips.System.Acked Sim.Reliable.default_params;
            reads =
              Some { Whips.System.default_reads with n_reads = 60 };
            seed = 7 }
        in
        let result = Whips.System.run cfg in
        Alcotest.(check bool) "drained" false result.Whips.System.stuck;
        Alcotest.(check int) "all reads served" 60
          (List.length (records result));
        check_read_results result;
        check_served_snapshots result);
    case "PA with channel faults serves only consistent snapshots"
      (fun () ->
        let cfg =
          { (Whips.System.default Workload.Scenarios.paper_views) with
            merge_kind = Whips.System.Force_pa;
            arrival = Whips.System.Poisson 30.0;
            fault_plan =
              Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05
                ~delay:0.05 "*";
            reliability = Whips.System.Acked Sim.Reliable.default_params;
            reads =
              Some { Whips.System.default_reads with n_reads = 60 };
            seed = 13 }
        in
        let result = Whips.System.run cfg in
        Alcotest.(check bool) "drained" false result.Whips.System.stuck;
        check_read_results result;
        check_served_snapshots result);
    case "the result cache changes nothing a client can observe" (fun () ->
        let base =
          { (Whips.System.default Workload.Scenarios.bank) with
            arrival = Whips.System.Poisson 40.0;
            (* Value-transparency check: pin the hit service time to the
               miss service time so cache-on and cache-off runs serve at
               identical instants (and thus versions). The cheaper-hit
               latency model is exercised separately below. *)
            latencies =
              { Whips.System.default_latencies with
                read_hit = Whips.System.default_latencies.Whips.System.read };
            seed = 19 }
        in
        let with_cache =
          Whips.System.run
            { base with
              reads =
                Some { Whips.System.default_reads with read_cache = true } }
        in
        let without =
          Whips.System.run
            { base with
              reads =
                Some { Whips.System.default_reads with read_cache = false } }
        in
        let a = records with_cache and b = records without in
        Alcotest.(check int) "same read count" (List.length a) (List.length b);
        List.iter2
          (fun x y ->
            Alcotest.(check int) "same version"
              x.Whips.System.read_version y.Whips.System.read_version;
            Alcotest.check Helpers.bag "same result"
              x.Whips.System.read_result y.Whips.System.read_result)
          a b;
        Alcotest.(check bool) "cache was exercised" true
          ((Atomic.get with_cache.Whips.System.metrics.Whips.Metrics.cache_hits) > 0);
        Alcotest.(check int) "no cache counters when disabled" 0
          ((Atomic.get without.Whips.System.metrics.Whips.Metrics.cache_hits)
          + (Atomic.get without.Whips.System.metrics.Whips.Metrics.cache_misses)));
    case "incremental refresh changes nothing a client can observe"
      (fun () ->
        (* Same value-transparency scheme as the cache test above: pinned
           hit latency makes refresh-on and refresh-off runs serve at
           identical instants and versions, so every divergence a
           refreshed entry could introduce would surface as a result
           mismatch. *)
        let base =
          { (Whips.System.default Workload.Scenarios.bank) with
            arrival = Whips.System.Poisson 40.0;
            latencies =
              { Whips.System.default_latencies with
                read_hit = Whips.System.default_latencies.Whips.System.read };
            seed = 29 }
        in
        let refresh =
          Whips.System.run
            { base with
              reads =
                Some { Whips.System.default_reads with cache_refresh = true } }
        in
        let invalidate =
          Whips.System.run
            { base with
              reads =
                Some { Whips.System.default_reads with cache_refresh = false } }
        in
        let a = records refresh and b = records invalidate in
        Alcotest.(check int) "same read count" (List.length a) (List.length b);
        List.iter2
          (fun x y ->
            Alcotest.(check int) "same version"
              x.Whips.System.read_version y.Whips.System.read_version;
            Alcotest.check Helpers.bag "same result"
              x.Whips.System.read_result y.Whips.System.read_result)
          a b;
        check_read_results refresh;
        let rm = refresh.Whips.System.metrics in
        Alcotest.(check bool) "refresh was exercised" true
          (Atomic.get rm.Whips.Metrics.cache_refreshes > 0);
        let im = invalidate.Whips.System.metrics in
        Alcotest.(check int) "no refreshes when disabled" 0
          (Atomic.get im.Whips.Metrics.cache_refreshes
          + Atomic.get im.Whips.Metrics.cache_refresh_fallbacks));
    case "refresh matches invalidation under SPA with channel faults"
      (fun () ->
        let base =
          { (Whips.System.default Workload.Scenarios.paper_views) with
            merge_kind = Whips.System.Force_spa;
            arrival = Whips.System.Poisson 30.0;
            latencies =
              { Whips.System.default_latencies with
                read_hit = Whips.System.default_latencies.Whips.System.read };
            fault_plan =
              Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05
                ~delay:0.05 "*";
            reliability = Whips.System.Acked Sim.Reliable.default_params;
            seed = 7 }
        in
        let reads refresh =
          Some
            { Whips.System.default_reads with n_reads = 60; cache_refresh = refresh }
        in
        let on = Whips.System.run { base with reads = reads true } in
        let off = Whips.System.run { base with reads = reads false } in
        Alcotest.(check bool) "drained" false on.Whips.System.stuck;
        let a = records on and b = records off in
        Alcotest.(check int) "same read count" (List.length a) (List.length b);
        List.iter2
          (fun x y ->
            Alcotest.(check int) "same version"
              x.Whips.System.read_version y.Whips.System.read_version;
            Alcotest.check Helpers.bag "same result"
              x.Whips.System.read_result y.Whips.System.read_result)
          a b;
        check_read_results on;
        check_served_snapshots on;
        Alcotest.(check bool) "refresh was exercised under faults" true
          (Atomic.get on.Whips.System.metrics.Whips.Metrics.cache_refreshes > 0));
    case "refresh matches invalidation under PA with channel faults"
      (fun () ->
        let base =
          { (Whips.System.default Workload.Scenarios.paper_views) with
            merge_kind = Whips.System.Force_pa;
            arrival = Whips.System.Poisson 30.0;
            latencies =
              { Whips.System.default_latencies with
                read_hit = Whips.System.default_latencies.Whips.System.read };
            fault_plan =
              Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05
                ~delay:0.05 "*";
            reliability = Whips.System.Acked Sim.Reliable.default_params;
            seed = 13 }
        in
        let reads refresh =
          Some
            { Whips.System.default_reads with n_reads = 60; cache_refresh = refresh }
        in
        let on = Whips.System.run { base with reads = reads true } in
        let off = Whips.System.run { base with reads = reads false } in
        let a = records on and b = records off in
        Alcotest.(check int) "same read count" (List.length a) (List.length b);
        List.iter2
          (fun x y ->
            Alcotest.(check int) "same version"
              x.Whips.System.read_version y.Whips.System.read_version;
            Alcotest.check Helpers.bag "same result"
              x.Whips.System.read_result y.Whips.System.read_result)
          a b;
        check_read_results on;
        check_served_snapshots on);
    case "a faultless retail_star run carries every cache delta" (fun () ->
        let scen = Workload.Scenarios.retail_star in
        let extra =
          List.init 40 (fun i ->
              [ Update.insert "sales"
                  (Tuple.ints [ 1 + (i mod 3); 1 + (i mod 2); 10 + i ]) ])
        in
        let scen =
          { scen with
            Workload.Scenarios.script = scen.Workload.Scenarios.script @ extra }
        in
        let queries =
          List.map (fun v -> Algebra.base (View.name v)) scen.Workload.Scenarios.views
          @ [ Algebra.group_by ~keys:[ "region" ]
                ~aggregates:[ ("total_qty", Algebra.Sum "qty") ]
                (Algebra.base "full_rollup") ]
        in
        let cfg =
          { (Whips.System.default scen) with
            arrival = Whips.System.Poisson 40.0;
            reads =
              Some { Whips.System.default_reads with n_reads = 300; queries };
            seed = 29 }
        in
        let builds0 = Compiled.group_state_builds () in
        let result = Whips.System.run cfg in
        let m = result.Whips.System.metrics in
        Alcotest.(check int) "nothing diffed" 0
          (Atomic.get m.Whips.Metrics.cache_deltas_diffed);
        Alcotest.(check bool) "deltas carried" true
          (Atomic.get m.Whips.Metrics.cache_deltas_carried > 0);
        Alcotest.(check bool) "entries refreshed" true
          (Atomic.get m.Whips.Metrics.cache_refreshes > 0);
        Alcotest.(check bool) "the aggregate's state built once at most" true
          (Compiled.group_state_builds () - builds0 <= 1);
        let serving = Option.get result.Whips.System.serving in
        let s = Cache.stats (Option.get serving.Whips.System.result_cache) in
        Alcotest.(check int) "snapshots surfaced in the metrics" s.Cache.snapshots
          (Atomic.get m.Whips.Metrics.cache_snapshots);
        Alcotest.(check bool) "snapshots follow retention" true
          (s.Cache.snapshots > 0
          && s.Cache.snapshots
             <= s.Cache.entries
                * (Vm.retained serving.Whips.System.version_manager + 1));
        check_read_results result);
    case "serving metrics are populated" (fun () ->
        let cfg =
          { (Whips.System.default Workload.Scenarios.bank) with
            arrival = Whips.System.Poisson 40.0;
            reads = Some Whips.System.default_reads;
            seed = 23 }
        in
        let result = Whips.System.run cfg in
        let m = result.Whips.System.metrics in
        Alcotest.(check int) "latency samples" (Atomic.get m.Whips.Metrics.reads)
          (Sim.Stats.Summary.count m.Whips.Metrics.read_latency);
        Alcotest.(check int) "staleness samples" (Atomic.get m.Whips.Metrics.reads)
          (Sim.Stats.Summary.count m.Whips.Metrics.served_staleness);
        Alcotest.(check bool) "hit ratio in range" true
          (let r = Whips.Metrics.cache_hit_ratio m in
           r >= 0.0 && r <= 1.0);
        Alcotest.(check bool) "read throughput positive" true
          (Whips.Metrics.read_throughput m > 0.0)) ]

let tests =
  version_manager_tests @ result_cache_tests @ chain_tests @ snapshot_tests @ alloc_tests
  @ session_tests
  @ system_tests
