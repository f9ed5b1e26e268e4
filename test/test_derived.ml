(* The auxiliary-view maintenance path (references [12]/[8]): a primary
   view maintained through materialized sub-views must produce exactly the
   action lists of direct maintenance, and the full system stays
   complete. *)

open Relational
open Query

let case = Helpers.case

let scen = Workload.Scenarios.auxiliary

let rs_view = List.nth scen.views 0 (* RS = R |><| S *)

let st_view = List.nth scen.views 1 (* ST = S |><| T *)

let v_view = List.nth scen.views 2 (* V = R |><| S |><| T *)

let over_aux = Algebra.(join (base "RS") (base "ST"))

let drive vm txns engine =
  List.iter (fun txn -> vm.Viewmgr.Vm.receive txn) txns;
  Sim.Engine.run engine

let tests =
  [ case "derived manager emits the same lists as direct maintenance"
      (fun () ->
        let srcs = Workload.Scenarios.sources scen in
        let initial = Source.Sources.initial srcs in
        let txns = Workload.Scenarios.run_script scen srcs in
        let engine = Sim.Engine.create () in
        let direct_out = ref [] and derived_out = ref [] in
        let latency ~batch:_ = 0.001 in
        let direct =
          Viewmgr.Plan_vm.create ~engine ~compute_latency:latency
            ~drain:Viewmgr.Plan_vm.One
            ~plan:(Selfmaint.Plan.replica ~initial v_view)
            ~emit:(fun al -> direct_out := !direct_out @ [ al ])
            ()
        in
        let derived =
          Viewmgr.Derived_vm.create ~engine ~compute_latency:latency
            ~initial
            ~aux:[ rs_view; st_view ]
            ~view:v_view ~over_aux
            ~emit:(fun al -> derived_out := !derived_out @ [ al ])
            ()
        in
        drive direct txns engine;
        drive derived txns engine;
        Alcotest.(check int) "same count" (List.length !direct_out)
          (List.length !derived_out);
        List.iter2
          (fun (a : Action_list.t) (b : Action_list.t) ->
            Alcotest.(check int) "same state" a.state b.state;
            match (a.payload, b.payload) with
            | Action_list.Delta da, Action_list.Delta db ->
              Alcotest.check Helpers.signed_bag "same delta" da db
            | _ -> Alcotest.fail "expected delta payloads")
          !direct_out !derived_out);
    case "system run with a derived primary view is complete" (fun () ->
        let cfg =
          { (Whips.System.default scen) with
            vm_overrides =
              [ ( "V",
                  Whips.System.Derived_vm
                    { aux = [ rs_view; st_view ]; over_aux } ) ];
            arrival = Whips.System.Poisson 60.0;
            seed = 11 }
        in
        let result = Whips.System.run cfg in
        Alcotest.(check string) "SPA still applies" "SPA" result.merge_algorithm;
        let v = Whips.System.verdict result in
        Alcotest.(check bool) "complete" true v.complete;
        let expected =
          Relation.contents
            (Query.View.materialize (Source.Sources.current result.sources) v_view)
        in
        Alcotest.check Helpers.bag "final contents" expected
          (Whips.System.view_contents result "V"));
    case "over_aux must mention only auxiliary names" (fun () ->
        let engine = Sim.Engine.create () in
        Alcotest.(check bool) "raises" true
          (match
             Viewmgr.Derived_vm.create ~engine
               ~compute_latency:(fun ~batch:_ -> 0.0)
               ~initial:Database.empty ~aux:[ rs_view ] ~view:v_view
               ~over_aux:Algebra.(join (base "RS") (base "T"))
               ~emit:(fun _ -> ())
               ()
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "derived path handles deletes and modifies on shared relations"
      (fun () ->
        (* S appears in both auxiliaries: its updates flow through both
           level-1 deltas and must still produce the exact primary delta. *)
        let srcs = Workload.Scenarios.sources scen in
        let initial = Source.Sources.initial srcs in
        let engine = Sim.Engine.create () in
        let out = ref [] in
        let derived =
          Viewmgr.Derived_vm.create ~engine
            ~compute_latency:(fun ~batch:_ -> 0.0)
            ~initial
            ~aux:[ rs_view; st_view ]
            ~view:v_view ~over_aux
            ~emit:(fun al -> out := !out @ [ al ])
            ()
        in
        let txns =
          [ Source.Sources.execute srcs
              [ Update.modify "S" ~before:(Helpers.ints [ 2; 3 ])
                  ~after:(Helpers.ints [ 2; 4 ]) ];
            Source.Sources.execute srcs
              [ Update.delete "S" (Helpers.ints [ 3; 4 ]) ] ]
        in
        drive derived txns engine;
        let final =
          List.fold_left
            (fun bag al -> Action_list.apply al bag)
            (Relation.contents (Query.View.materialize initial v_view))
            !out
        in
        Alcotest.check Helpers.bag "replay equals recompute"
          (Relation.contents
             (Query.View.materialize (Source.Sources.current srcs) v_view))
          final);
    case "a Group_by over auxiliary views keeps its group state" (fun () ->
        (* Both levels step with their Group_by state: the primary
           aggregate is built once and then advanced from each delta,
           with no refold (Count and an Int Sum never need one). *)
        let rollup input =
          Algebra.group_by ~keys:[ "B" ]
            ~aggregates:[ ("n", Algebra.Count); ("s", Algebra.Sum "D") ]
            input
        in
        let view =
          Query.View.make "G"
            (rollup Algebra.(join_all [ base "R"; base "S"; base "T" ]))
        in
        let srcs = Workload.Scenarios.sources scen in
        let initial = Source.Sources.initial srcs in
        let txns = Workload.Scenarios.run_script scen srcs in
        let engine = Sim.Engine.create () in
        let latency ~batch:_ = 0.001 in
        let direct_out = ref [] and derived_out = ref [] in
        let direct =
          Viewmgr.Plan_vm.create ~engine ~compute_latency:latency
            ~drain:Viewmgr.Plan_vm.One
            ~plan:(Selfmaint.Plan.replica ~initial view)
            ~emit:(fun al -> direct_out := !direct_out @ [ al ])
            ()
        in
        drive direct txns engine;
        let builds = Query.Compiled.group_state_builds ()
        and rows = Query.Compiled.group_rows () in
        let derived =
          Viewmgr.Derived_vm.create ~engine ~compute_latency:latency ~initial
            ~aux:[ rs_view; st_view ] ~view
            ~over_aux:(rollup over_aux)
            ~emit:(fun al -> derived_out := !derived_out @ [ al ])
            ()
        in
        drive derived txns engine;
        Alcotest.(check int) "one list per transaction"
          (List.length txns) (List.length !derived_out);
        List.iter2
          (fun (a : Action_list.t) (b : Action_list.t) ->
            Alcotest.(check int) "same state" a.state b.state;
            match (a.payload, b.payload) with
            | Action_list.Delta da, Action_list.Delta db ->
              Alcotest.check Helpers.signed_bag "same delta" da db
            | _ -> Alcotest.fail "expected delta payloads")
          !direct_out !derived_out;
        Alcotest.(check bool) "the group state was built" true
          (Query.Compiled.group_state_builds () - builds > 0);
        Alcotest.(check int) "and never refolded" 0
          (Query.Compiled.group_rows () - rows)) ]
