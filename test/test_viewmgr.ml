open Relational
open Query

let case = Helpers.case

let rs = Helpers.int_schema [ "A"; "B" ]

let ss = Helpers.int_schema [ "B"; "C" ]

let initial =
  Database.of_list
    [ ("R", Helpers.rel rs [ [ 1; 2 ] ]); ("S", Helpers.rel ss [ [ 2; 3 ] ]) ]

let view = View.make "V" Algebra.(join (base "R") (base "S"))

let txn id u = Update.Transaction.single ~id ~source:"s" u

let insert_s id tuple = txn id (Update.insert "S" (Helpers.ints tuple))

(* Apply a stream of emitted action lists to the initially materialized
   view and compare against recomputation. *)
let replay als =
  List.fold_left
    (fun bag al -> Action_list.apply al bag)
    (Relation.contents (View.materialize initial view))
    als

let expected db = Relation.contents (View.materialize db view)

(* A plan-driven manager over base replicas of [initial]. *)
let plan_vm ~engine ~compute_latency ~drain ~emit =
  Viewmgr.Plan_vm.create ~engine ~compute_latency ~drain
    ~plan:(Selfmaint.Plan.replica ~initial view)
    ~emit ()

let tests =
  [ case "complete VM: one list per update, correct deltas" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let vm =
          plan_vm ~engine
            ~compute_latency:(fun ~batch:_ -> 0.01)
            ~drain:Viewmgr.Plan_vm.One
            ~emit:(fun al -> out := !out @ [ al ])
        in
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        vm.Viewmgr.Vm.receive (insert_s 2 [ 2; 7 ]);
        Sim.Engine.run engine;
        Alcotest.(check int) "two lists" 2 (List.length !out);
        Alcotest.(check (list int)) "states 1,2" [ 1; 2 ]
          (List.map (fun (al : Action_list.t) -> al.state) !out);
        let final =
          Database.apply_transaction
            (Database.apply_transaction initial (insert_s 1 [ 2; 9 ]))
            (insert_s 2 [ 2; 7 ])
        in
        Alcotest.check Helpers.bag "replay matches recompute" (expected final)
          (replay !out);
        Alcotest.(check int) "no pending" 0 (vm.Viewmgr.Vm.pending ()));
    case "complete VM level" (fun () ->
        let engine = Sim.Engine.create () in
        let vm =
          plan_vm ~engine
            ~compute_latency:(fun ~batch:_ -> 0.0)
            ~drain:Viewmgr.Plan_vm.One ~emit:(fun _ -> ())
        in
        Alcotest.(check bool) "complete" true
          (vm.Viewmgr.Vm.level = Viewmgr.Vm.Complete));
    case "batching VM: back-to-back updates become one list" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let vm =
          plan_vm ~engine
            ~compute_latency:(fun ~batch:_ -> 1.0)
            ~drain:Viewmgr.Plan_vm.Greedy
            ~emit:(fun al -> out := !out @ [ al ])
        in
        (* First update starts service; the next two queue and batch. *)
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        vm.Viewmgr.Vm.receive (insert_s 2 [ 2; 7 ]);
        vm.Viewmgr.Vm.receive (insert_s 3 [ 2; 5 ]);
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "states 1 then 3" [ 1; 3 ]
          (List.map (fun (al : Action_list.t) -> al.state) !out);
        let final =
          List.fold_left Database.apply_transaction initial
            [ insert_s 1 [ 2; 9 ]; insert_s 2 [ 2; 7 ]; insert_s 3 [ 2; 5 ] ]
        in
        Alcotest.check Helpers.bag "replay matches" (expected final) (replay !out));
    case "complete-N VM waits for N then emits one list" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let vm =
          plan_vm ~engine
            ~compute_latency:(fun ~batch:_ -> 0.01)
            ~drain:(Viewmgr.Plan_vm.Exactly 2)
            ~emit:(fun al -> out := !out @ [ al ])
        in
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        Sim.Engine.run engine;
        Alcotest.(check int) "waiting" 0 (List.length !out);
        vm.Viewmgr.Vm.receive (insert_s 2 [ 2; 7 ]);
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "one list at state 2" [ 2 ]
          (List.map (fun (al : Action_list.t) -> al.state) !out));
    case "complete-N VM flush releases the partial tail" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let vm =
          plan_vm ~engine
            ~compute_latency:(fun ~batch:_ -> 0.01)
            ~drain:(Viewmgr.Plan_vm.Exactly 3)
            ~emit:(fun al -> out := !out @ [ al ])
        in
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        Sim.Engine.run engine;
        vm.Viewmgr.Vm.flush ();
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "flushed" [ 1 ]
          (List.map (fun (al : Action_list.t) -> al.state) !out));
    case "periodic VM refreshes with full contents" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let vm =
          Viewmgr.Periodic_vm.create ~engine ~period:1.0
            ~compute_latency:(fun ~batch:_ -> 0.0)
            ~initial ~view
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        vm.Viewmgr.Vm.receive (insert_s 2 [ 2; 7 ]);
        Sim.Engine.run engine;
        (match !out with
        | [ al ] ->
          Alcotest.(check int) "state 2" 2 al.state;
          let final =
            List.fold_left Database.apply_transaction initial
              [ insert_s 1 [ 2; 9 ]; insert_s 2 [ 2; 7 ] ]
          in
          Alcotest.check Helpers.bag "refresh carries V(ss_2)" (expected final)
            (Action_list.apply al Bag.empty)
        | _ -> Alcotest.fail "expected exactly one refresh");
        Alcotest.(check bool) "refresh payload" true
          (match (List.hd !out).payload with
          | Action_list.Refresh _ -> true
          | Action_list.Delta _ -> false));
    case "periodic VM emits nothing when idle" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let _vm =
          Viewmgr.Periodic_vm.create ~engine ~period:0.5
            ~compute_latency:(fun ~batch:_ -> 0.0)
            ~initial ~view
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        Sim.Engine.run engine;
        Alcotest.(check int) "silent" 0 (List.length !out));
    case "convergent VM may reorder but deltas sum correctly" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let delays = ref [ 0.9; 0.1 ] in
        let vm =
          Viewmgr.Convergent_vm.create ~engine
            ~emit_delay:(fun () ->
              match !delays with
              | d :: rest ->
                delays := rest;
                d
              | [] -> 0.0)
            ~initial ~view
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        vm.Viewmgr.Vm.receive (insert_s 1 [ 2; 9 ]);
        vm.Viewmgr.Vm.receive (insert_s 2 [ 2; 7 ]);
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "out of order" [ 2; 1 ]
          (List.map (fun (al : Action_list.t) -> al.state) !out);
        let final =
          List.fold_left Database.apply_transaction initial
            [ insert_s 1 [ 2; 9 ]; insert_s 2 [ 2; 7 ] ]
        in
        Alcotest.check Helpers.bag "still converges" (expected final)
          (replay !out));
    case "strobe VM: versioned answer covers intertwined updates" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let db = ref initial in
        let version = ref 0 in
        let query expr k =
          (* Answer after 1s, reflecting the then-current source state. *)
          Sim.Engine.schedule_after engine 1.0 (fun () ->
              k (Relation.contents (Eval.eval !db expr), !version))
        in
        let vm =
          Viewmgr.Strobe_vm.create ~engine ~query ~view
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        Alcotest.(check bool) "wants ticks" true vm.Viewmgr.Vm.needs_ticks;
        let apply id u =
          db := Database.apply_transaction !db (txn id u);
          version := id;
          vm.Viewmgr.Vm.receive (txn id u)
        in
        (* U1 arrives; the query it triggers will be answered only after U2
           also committed and reached the manager. *)
        apply 1 (Update.insert "S" (Helpers.ints [ 2; 9 ]));
        apply 2 (Update.insert "S" (Helpers.ints [ 2; 7 ]));
        Sim.Engine.run engine;
        (match !out with
        | [ al ] ->
          Alcotest.(check int) "one batched refresh at state 2" 2 al.state;
          Alcotest.check Helpers.bag "contents = V(ss_2)" (expected !db)
            (Action_list.apply al Bag.empty)
        | als ->
          Alcotest.failf "expected one refresh, got %d" (List.length als));
        Alcotest.(check int) "drained" 0 (vm.Viewmgr.Vm.pending ()));
    case "strobe VM ignores irrelevant ticks" (fun () ->
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let query _ k =
          Sim.Engine.schedule_after engine 0.1 (fun () -> k (Bag.empty, 1))
        in
        let vm =
          Viewmgr.Strobe_vm.create ~engine ~query ~view
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        (* A tick about an unrelated relation must not trigger a query. *)
        vm.Viewmgr.Vm.receive
          (Update.Transaction.single ~id:1 ~source:"s"
             (Update.insert "Z" (Helpers.ints [ 0 ])));
        Sim.Engine.run engine;
        Alcotest.(check int) "no output" 0 (List.length !out)) ]
