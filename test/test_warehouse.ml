open Relational
open Query

let case = Helpers.case

let al ?(delta = Signed_bag.zero) view state = Action_list.delta ~view ~state delta

let plus view state tuple =
  Action_list.delta ~view ~state (Signed_bag.singleton tuple 1)

let wt_tests =
  [ case "views dedupe in order" (fun () ->
        let wt = Warehouse.Wt.make ~rows:[ 1 ] [ al "B" 1; al "A" 1; al "B" 1 ] in
        Alcotest.(check (list string)) "BA" [ "B"; "A" ] (Warehouse.Wt.views wt));
    case "rows are sorted and deduped" (fun () ->
        let wt = Warehouse.Wt.make ~rows:[ 3; 1; 3 ] [] in
        Alcotest.(check (list int)) "13" [ 1; 3 ] wt.Warehouse.Wt.rows;
        Alcotest.(check int) "last" 3 (Warehouse.Wt.last_row wt));
    case "depends_on iff view sets intersect" (fun () ->
        let w1 = Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1; al "B" 1 ] in
        let w2 = Warehouse.Wt.make ~rows:[ 2 ] [ al "B" 2 ] in
        let w3 = Warehouse.Wt.make ~rows:[ 3 ] [ al "C" 3 ] in
        Alcotest.(check bool) "w2 on w1" true (Warehouse.Wt.depends_on w2 w1);
        Alcotest.(check bool) "w3 not on w1" false (Warehouse.Wt.depends_on w3 w1));
    case "batch concatenates preserving order" (fun () ->
        let w1 = Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ] in
        let w2 = Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ] in
        let b = Warehouse.Wt.batch [ w1; w2 ] in
        Alcotest.(check (list int)) "rows" [ 1; 2 ] b.Warehouse.Wt.rows;
        Alcotest.(check int) "2 actions" 2 (List.length b.Warehouse.Wt.actions));
    case "action_count sums" (fun () ->
        let wt =
          Warehouse.Wt.make ~rows:[ 1 ]
            [ plus "A" 1 (Helpers.ints [ 1 ]); plus "B" 1 (Helpers.ints [ 2 ]) ]
        in
        Alcotest.(check int) "2" 2 (Warehouse.Wt.action_count wt)) ]

let store () =
  Warehouse.Store.create
    [ ("A", Helpers.rel (Helpers.int_schema [ "x" ]) [ [ 1 ] ]);
      ("B", Helpers.rel (Helpers.int_schema [ "y" ]) []) ]

let store_tests =
  [ case "initial snapshot is ws_0" (fun () ->
        let s = store () in
        Alcotest.(check int) "1 state" 1 (List.length (Warehouse.Store.states s));
        Alcotest.(check int) "A has 1" 1 (Relation.cardinal (Warehouse.Store.view s "A")));
    case "apply is atomic across action lists" (fun () ->
        let s = store () in
        Warehouse.Store.apply s
          (Warehouse.Wt.make ~rows:[ 1 ]
             [ plus "A" 1 (Helpers.ints [ 2 ]); plus "B" 1 (Helpers.ints [ 9 ]) ]);
        Alcotest.(check int) "one commit" 1 (Warehouse.Store.commit_count s);
        Alcotest.(check int) "2 states" 2 (List.length (Warehouse.Store.states s));
        Alcotest.(check int) "A grew" 2 (Relation.cardinal (Warehouse.Store.view s "A"));
        Alcotest.(check int) "B grew" 1 (Relation.cardinal (Warehouse.Store.view s "B")));
    case "apply to unknown view raises and nothing else is recorded" (fun () ->
        let s = store () in
        Alcotest.(check bool) "raises" true
          (match
             Warehouse.Store.apply s
               (Warehouse.Wt.make ~rows:[ 1 ] [ plus "Z" 1 (Helpers.ints [ 1 ]) ])
           with
          | exception Warehouse.Store.Unknown_view "Z" -> true
          | _ -> false);
        Alcotest.(check int) "no commit recorded" 0 (Warehouse.Store.commit_count s));
    case "commits carry time and state" (fun () ->
        let s = store () in
        Warehouse.Store.apply s ~time:4.2 (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        match Warehouse.Store.commits s with
        | [ c ] ->
          Alcotest.(check (float 1e-9)) "time" 4.2 c.Warehouse.Store.time;
          Alcotest.(check int) "state has A" 1
            (Relation.cardinal (Database.find c.Warehouse.Store.state "A"))
        | _ -> Alcotest.fail "expected one commit");
    case "refresh action replaces view contents" (fun () ->
        let s = store () in
        Warehouse.Store.apply s
          (Warehouse.Wt.make ~rows:[ 1 ]
             [ Action_list.refresh ~view:"A" ~state:1 (Helpers.bag_of [ [ 7 ]; [ 8 ] ]) ]);
        Alcotest.check Helpers.bag "replaced"
          (Helpers.bag_of [ [ 7 ]; [ 8 ] ])
          (Relation.contents (Warehouse.Store.view s "A")));
    case "as_of with tied commit times serves the latest of them" (fun () ->
        let s = store () in
        Warehouse.Store.apply s ~time:1.0
          (Warehouse.Wt.make ~rows:[ 1 ] [ plus "A" 1 (Helpers.ints [ 2 ]) ]);
        Warehouse.Store.apply s ~time:1.0
          (Warehouse.Wt.make ~rows:[ 2 ] [ plus "A" 2 (Helpers.ints [ 3 ]) ]);
        Alcotest.(check int) "second commit wins the tie" 3
          (Relation.cardinal
             (Database.find (Warehouse.Store.as_of s 1.0) "A")));
    case "Keep_last prunes history but keeps the current state" (fun () ->
        let s =
          Warehouse.Store.create
            ~retention:(Warehouse.Store.Keep_last 2)
            [ ("A", Helpers.rel (Helpers.int_schema [ "x" ]) []) ]
        in
        for i = 1 to 4 do
          Warehouse.Store.apply s ~time:(float_of_int i)
            (Warehouse.Wt.make ~rows:[ i ] [ plus "A" i (Helpers.ints [ i ]) ])
        done;
        Alcotest.(check int) "all commits counted" 4
          (Warehouse.Store.commit_count s);
        Alcotest.(check int) "two retained" 2 (Warehouse.Store.retained s);
        Alcotest.(check int) "watermark" 2 (Warehouse.Store.watermark s);
        Alcotest.(check int) "states = ws_0 + retained" 3
          (List.length (Warehouse.Store.states s));
        Alcotest.(check int) "current intact" 4
          (Relation.cardinal (Warehouse.Store.view s "A"));
        Alcotest.(check int) "as_of inside the window" 3
          (Relation.cardinal
             (Database.find (Warehouse.Store.as_of s 3.5) "A"));
        Alcotest.(check bool) "as_of below the watermark" true
          (match Warehouse.Store.as_of s 1.5 with
          | exception Warehouse.Store.Pruned 1.5 -> true
          | _ -> false));
    case "Keep_last n < 1 is rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (match
             Warehouse.Store.create
               ~retention:(Warehouse.Store.Keep_last 0)
               [ ("A", Helpers.rel (Helpers.int_schema [ "x" ]) []) ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Helpers.qcheck ~count:200 "as_of binary search matches a linear oracle"
      QCheck2.Gen.(
        pair (list_size (int_range 0 15) (int_range 0 4)) (int_range (-2) 40))
      (fun (gaps, instant10) ->
        (* Random nondecreasing commit times (repeats exercise the tie
           rule), then a random instant checked against a scan. *)
        let s =
          Warehouse.Store.create
            [ ("A", Helpers.rel (Helpers.int_schema [ "x" ]) []) ]
        in
        let time = ref 0.0 in
        List.iteri
          (fun i gap ->
            time := !time +. (float_of_int gap /. 2.0);
            Warehouse.Store.apply s ~time:!time
              (Warehouse.Wt.make ~rows:[ i + 1 ]
                 [ plus "A" (i + 1) (Helpers.ints [ i ]) ]))
          gaps;
        let instant = float_of_int instant10 /. 10.0 in
        let expected =
          List.fold_left
            (fun acc c ->
              if c.Warehouse.Store.time <= instant then
                Some c.Warehouse.Store.state
              else acc)
            None (Warehouse.Store.commits s)
        in
        let expected =
          match expected with
          | Some state -> state
          | None -> Warehouse.Store.initial s
        in
        Database.equal expected (Warehouse.Store.as_of s instant)) ]

(* Submitter tests run on the simulation engine. *)
let submitter_setup policy =
  let engine = Sim.Engine.create () in
  let s = store () in
  let committed = ref [] in
  let sub =
    Warehouse.Submitter.create engine ~policy
      ~commit_latency:(fun () -> 1.0)
      ~store:s
      ~on_commit:(fun wt ->
        committed := (Sim.Engine.now engine, wt.Warehouse.Wt.rows) :: !committed)
      ()
  in
  (engine, s, sub, committed)

let submitter_tests =
  [ case "serial commits one at a time in order" (fun () ->
        let engine, _, sub, committed = submitter_setup Warehouse.Submitter.Serial in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "B" 2 ]);
        Sim.Engine.run engine;
        let log = List.rev !committed in
        Alcotest.(check int) "2 commits" 2 (List.length log);
        (match log with
        | [ (t1, [ 1 ]); (t2, [ 2 ]) ] ->
          Alcotest.(check (float 1e-9)) "first at 1" 1.0 t1;
          Alcotest.(check (float 1e-9)) "second serialized at 2" 2.0 t2
        | _ -> Alcotest.fail "unexpected commit log");
        Alcotest.(check int) "none outstanding" 0 (Warehouse.Submitter.outstanding sub));
    case "dependency policy parallelizes independent transactions" (fun () ->
        let engine, _, sub, committed =
          submitter_setup Warehouse.Submitter.Dependency
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "B" 2 ]);
        Sim.Engine.run engine;
        let times = List.rev_map fst !committed in
        Alcotest.(check (list (float 1e-9))) "both at t=1" [ 1.0; 1.0 ] times);
    case "dependency policy serializes dependent transactions" (fun () ->
        let engine, _, sub, committed =
          submitter_setup Warehouse.Submitter.Dependency
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]);
        Sim.Engine.run engine;
        let log = List.rev !committed in
        (match log with
        | [ (t1, [ 1 ]); (t2, [ 2 ]) ] ->
          Alcotest.(check (float 1e-9)) "first" 1.0 t1;
          Alcotest.(check (float 1e-9)) "second waits" 2.0 t2
        | _ -> Alcotest.fail "unexpected commit log"));
    case "dependency: later independent overtakes blocked dependent" (fun () ->
        let engine, _, sub, committed =
          submitter_setup Warehouse.Submitter.Dependency
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 3 ] [ al "B" 3 ]);
        Sim.Engine.run engine;
        let at_one =
          List.filter (fun (t, _) -> abs_float (t -. 1.0) < 1e-9) !committed
        in
        Alcotest.(check int) "rows 1 and 3 at t=1" 2 (List.length at_one));
    case "batched combines into one BWT" (fun () ->
        let engine, s, sub, committed =
          submitter_setup (Warehouse.Submitter.Batched 2)
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]);
        Sim.Engine.run engine;
        (match List.rev !committed with
        | [ (_, rows) ] -> Alcotest.(check (list int)) "both rows" [ 1; 2 ] rows
        | _ -> Alcotest.fail "expected a single batched commit");
        Alcotest.(check int) "one warehouse commit" 1 (Warehouse.Store.commit_count s));
    case "batched flushes a partial batch after the timeout" (fun () ->
        let engine = Sim.Engine.create () in
        let s = store () in
        let committed = ref 0 in
        let sub =
          Warehouse.Submitter.create engine ~policy:(Warehouse.Submitter.Batched 10)
            ~commit_latency:(fun () -> 0.1)
            ~batch_timeout:0.5 ~store:s
            ~on_commit:(fun _ -> incr committed)
            ()
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Sim.Engine.run engine;
        Alcotest.(check int) "flushed" 1 !committed;
        Alcotest.(check bool) "after timeout" true (Sim.Engine.now engine >= 0.5));
    case "batch timer firing on an already-flushed batch is a no-op" (fun () ->
        (* A size-triggered flush does not cancel the pending timer; when
           it fires on the (now empty) batch nothing must be committed,
           and a later submission must get a fresh timer. *)
        let engine = Sim.Engine.create () in
        let s = store () in
        let committed = ref [] in
        let sub =
          Warehouse.Submitter.create engine
            ~policy:(Warehouse.Submitter.Batched 2)
            ~commit_latency:(fun () -> 0.01)
            ~batch_timeout:0.05 ~store:s
            ~on_commit:(fun wt ->
              committed := (Sim.Engine.now engine, wt.Warehouse.Wt.rows) :: !committed)
            ()
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]);
        (* The size flush happened at t=0; the t=0.05 timer is still
           pending. A third wt submitted after it fires needs its own. *)
        Sim.Engine.schedule_at engine 0.1 (fun () ->
            Warehouse.Submitter.submit sub
              (Warehouse.Wt.make ~rows:[ 3 ] [ al "A" 3 ]));
        Sim.Engine.run engine;
        (match List.rev !committed with
        | [ (t1, [ 1; 2 ]); (t2, [ 3 ]) ] ->
          Alcotest.(check (float 1e-9)) "size flush commit" 0.01 t1;
          Alcotest.(check (float 1e-9)) "fresh timer flush commit" 0.16 t2
        | log ->
          Alcotest.failf "unexpected commit log (%d entries)" (List.length log));
        Alcotest.(check int) "two store commits" 2
          (Warehouse.Store.commit_count s));
    case "pending timer adopts wts submitted after a size flush" (fun () ->
        (* wt3 arrives while the timer armed by wt1 is still pending (the
           batch it was armed for has already size-flushed): wt3 must ride
           that original deadline, not a new one. *)
        let engine = Sim.Engine.create () in
        let s = store () in
        let committed = ref [] in
        let sub =
          Warehouse.Submitter.create engine
            ~policy:(Warehouse.Submitter.Batched 2)
            ~commit_latency:(fun () -> 0.01)
            ~batch_timeout:0.05 ~store:s
            ~on_commit:(fun wt ->
              committed := (Sim.Engine.now engine, wt.Warehouse.Wt.rows) :: !committed)
            ()
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Sim.Engine.schedule_at engine 0.01 (fun () ->
            Warehouse.Submitter.submit sub
              (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]));
        Sim.Engine.schedule_at engine 0.02 (fun () ->
            Warehouse.Submitter.submit sub
              (Warehouse.Wt.make ~rows:[ 3 ] [ al "A" 3 ]));
        Sim.Engine.run engine;
        (match List.rev !committed with
        | [ (t1, [ 1; 2 ]); (t2, [ 3 ]) ] ->
          Alcotest.(check (float 1e-9)) "size flush commit" 0.02 t1;
          (* original deadline 0.05, not 0.02 + 0.05 *)
          Alcotest.(check (float 1e-9)) "original deadline" 0.06 t2
        | log ->
          Alcotest.failf "unexpected commit log (%d entries)" (List.length log)));
    case "batch formed exactly at the timeout boundary" (fun () ->
        (* The timer (scheduled at t=0) and a submission at exactly
           t=timeout tie; engine insertion order runs the timer first, so
           the second wt starts a new batch of its own. *)
        let engine = Sim.Engine.create () in
        let s = store () in
        let committed = ref [] in
        let sub =
          Warehouse.Submitter.create engine
            ~policy:(Warehouse.Submitter.Batched 10)
            ~commit_latency:(fun () -> 0.01)
            ~batch_timeout:0.05 ~store:s
            ~on_commit:(fun wt ->
              committed := (Sim.Engine.now engine, wt.Warehouse.Wt.rows) :: !committed)
            ()
        in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Sim.Engine.schedule_at engine 0.05 (fun () ->
            Warehouse.Submitter.submit sub
              (Warehouse.Wt.make ~rows:[ 2 ] [ al "A" 2 ]));
        Sim.Engine.run engine;
        (match List.rev !committed with
        | [ (t1, [ 1 ]); (t2, [ 2 ]) ] ->
          Alcotest.(check (float 1e-9)) "first batch at its deadline" 0.06 t1;
          Alcotest.(check (float 1e-9)) "second batch a full timeout later"
            0.11 t2
        | log ->
          Alcotest.failf "unexpected commit log (%d entries)" (List.length log));
        Alcotest.(check int) "nothing outstanding" 0
          (Warehouse.Submitter.outstanding sub));
    case "committed counter" (fun () ->
        let engine, _, sub, _ = submitter_setup Warehouse.Submitter.Serial in
        Warehouse.Submitter.submit sub (Warehouse.Wt.make ~rows:[ 1 ] [ al "A" 1 ]);
        Sim.Engine.run engine;
        Alcotest.(check int) "1" 1 (Warehouse.Submitter.committed sub));
    case "policy names" (fun () ->
        Alcotest.(check string) "serial" "serial"
          (Warehouse.Submitter.policy_name Warehouse.Submitter.Serial);
        Alcotest.(check string) "batched" "batched-4"
          (Warehouse.Submitter.policy_name (Warehouse.Submitter.Batched 4))) ]

let submitter_property_tests =
  [ Helpers.qcheck ~count:100 "dependency policy: dependent commits in order"
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Sim.Rng.create seed in
        let engine = Sim.Engine.create () in
        let store =
          Warehouse.Store.create
            (List.init 4 (fun i ->
                 ( Printf.sprintf "V%d" i,
                   Relational.Relation.create (Helpers.int_schema [ "x" ]) )))
        in
        let committed = ref [] in
        let sub =
          Warehouse.Submitter.create engine
            ~policy:Warehouse.Submitter.Dependency
            ~commit_latency:(fun () -> Sim.Rng.float rng 0.1)
            ~store
            ~on_commit:(fun wt -> committed := wt :: !committed)
            ()
        in
        (* Random submissions at random times with random view sets. *)
        let n = Sim.Rng.int_range rng 1 12 in
        let wts =
          List.init n (fun i ->
              let views =
                List.filter (fun _ -> Sim.Rng.bool rng) [ 0; 1; 2; 3 ]
              in
              let views = if views = [] then [ Sim.Rng.int rng 4 ] else views in
              Warehouse.Wt.make ~rows:[ i + 1 ]
                (List.map
                   (fun v ->
                     al (Printf.sprintf "V%d" v) (i + 1))
                   views))
        in
        let clock = ref 0.0 in
        List.iter
          (fun wt ->
            clock := !clock +. Sim.Rng.float rng 0.05;
            let at = !clock in
            Sim.Engine.schedule_at engine at (fun () ->
                Warehouse.Submitter.submit sub wt))
          wts;
        Sim.Engine.run engine;
        let order = List.rev_map (fun wt -> Warehouse.Wt.last_row wt) !committed in
        (* Everything committed... *)
        List.length order = n
        (* ...and for any dependent pair, submission order = commit order. *)
        && List.for_all
             (fun (i, wi) ->
               List.for_all
                 (fun (j, wj) ->
                   i >= j
                   || (not (Warehouse.Wt.depends_on wj wi))
                   ||
                   let pos r =
                     let rec find k = function
                       | [] -> -1
                       | x :: rest -> if x = r then k else find (k + 1) rest
                     in
                     find 0 order
                   in
                   pos (i + 1) < pos (j + 1))
                 (List.mapi (fun j w -> (j, w)) wts))
             (List.mapi (fun i w -> (i, w)) wts)) ]

(* Appended last so the earlier cases keep their positions in the suite. *)
let wt_scale_tests =
  [ case "views of a large batch keep first-occurrence order" (fun () ->
        let name i = Printf.sprintf "V%d" (i * 7919 mod 600) in
        let wt =
          Warehouse.Wt.make ~rows:[ 1 ] (List.init 3000 (fun i -> al (name i) 1))
        in
        Alcotest.(check (list string)) "600 views, first seen first"
          (List.init 600 name) (Warehouse.Wt.views wt)) ]

let tests =
  wt_tests @ store_tests @ submitter_tests @ submitter_property_tests
  @ wt_scale_tests
