open Whips

let case = Helpers.case

let tests =
  [ case "timeline is off by default" (fun () ->
        let result = System.run (System.default Workload.Scenarios.example1) in
        Alcotest.(check int) "empty" 0 (List.length result.timeline));
    case "timeline records chronologically with all event kinds" (fun () ->
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              record_timeline = true;
              seed = 3 }
        in
        let times = List.map fst result.timeline in
        Alcotest.(check bool) "nonempty" true (times <> []);
        Alcotest.(check bool) "sorted" true
          (List.sort compare times = times);
        let has prefix =
          List.exists
            (fun (_, e) ->
              String.length e >= String.length prefix
              && String.sub e 0 (String.length prefix) = prefix)
            result.timeline
        in
        Alcotest.(check bool) "source commits" true (has "source commit");
        Alcotest.(check bool) "integrator" true (has "integrator");
        Alcotest.(check bool) "merge RELs" true (has "merge <- REL");
        Alcotest.(check bool) "merge ALs" true (has "merge <- AL");
        Alcotest.(check bool) "warehouse commits" true (has "warehouse commit"));
    case "timeline is pinned byte for byte on a paper scenario" (fun () ->
        (* Batched managers at 80 txn/s: a fused commit of two rows, and
           every message kind of a fault-free run. The multi-row commit's
           line break comes from the row list's break hint. *)
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              record_timeline = true;
              vm_kind = System.Batching_vm;
              arrival = System.Poisson 80.0;
              seed = 3 }
        in
        let expected =
          [ (0x1.f2d5b0cbab268p-9, "source commit: U1 at src2");
            ( 0x1.7d57d528604a8p-8,
              "integrator: U1 (T1@src2{insert S [2; 8]}) REL = {V1, V2}" );
            (0x1.f34f26fad1384p-8, "merge <- REL_1 = {V1, V2}");
            (0x1.528522bb645a6p-7, "source commit: U2 at src3");
            ( 0x1.63c6e4c1a0f2fp-7,
              "integrator: U2 (T2@src3{insert Q [4; 6]}) REL = {V2, V3}" );
            (0x1.a7f123bb23bb6p-7, "merge <- REL_2 = {V2, V3}");
            (0x1.aef44220c97c9p-7, "merge <- AL(V3, 2)");
            (0x1.06d5437542aa4p-6, "source commit: U3 at src2");
            ( 0x1.08b85d8ccfd66p-6,
              "integrator: U3 (T3@src2{delete S [2; 3]}) REL = {V1, V2}" );
            (0x1.1cdb359cb706dp-6, "merge <- REL_3 = {V1, V2}");
            (0x1.276d8d520aad9p-6, "merge <- AL(V1, 1)");
            (0x1.3e16ad328f707p-6, "merge <- AL(V2, 1)");
            ( 0x1.6a7ee5c2eafdap-6,
              "warehouse commit: rows [1] -> views {V1, V2}" );
            (0x1.f64bf813ae22cp-6, "merge <- AL(V2, 3)");
            (0x1.2879dccc5df59p-5, "merge <- AL(V1, 3)");
            ( 0x1.28c3da3ac662p-5,
              "warehouse commit: rows [2, 3] -> views {V3, V2, V1}" ) ]
        in
        Alcotest.(check (list (pair (float 0.0) string)))
          "timeline" expected result.timeline);
    case "timeline records forwarded RELs under via-manager routing"
      (fun () ->
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              record_timeline = true;
              rel_routing = System.Via_manager;
              seed = 3 }
        in
        Alcotest.(check bool) "forwarded" true
          (List.exists
             (fun (_, e) ->
               String.length e > 24
               && String.sub e 0 24 = "merge <- forwarded REL_1")
             result.timeline));
    case "metrics throughput" (fun () ->
        let m = Metrics.create () in
        Atomic.set m.Metrics.transactions 10;
        m.Metrics.completed_at <- 2.0;
        Alcotest.(check (float 1e-9)) "5/s" 5.0 (Metrics.throughput m);
        let empty = Metrics.create () in
        Alcotest.(check (float 1e-9)) "0 when instantaneous" 0.0
          (Metrics.throughput empty));
    case "metrics pretty-printer is total" (fun () ->
        let result = System.run (System.default Workload.Scenarios.bank) in
        Alcotest.(check bool) "prints" true
          (String.length (Fmt.str "%a" Metrics.pp result.metrics) > 0));
    case "witness maps every view content to its claimed source state"
      (fun () ->
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              vm_kind = System.Batching_vm;
              arrival = System.Poisson 80.0;
              seed = 7 }
        in
        let verdict, witness = System.verdict_with_witness result in
        Alcotest.(check bool) "strong" true verdict.strongly_consistent;
        match witness with
        | None -> Alcotest.fail "expected a witness"
        | Some chain ->
          let states = Warehouse.Store.states result.store in
          Alcotest.(check int) "one entry per warehouse state"
            (List.length states) (List.length chain);
          List.iteri
            (fun j per_view ->
              let ws = List.nth states j in
              List.iter
                (fun (view_name, c) ->
                  let view =
                    List.find
                      (fun v -> Query.View.name v = view_name)
                      Workload.Scenarios.paper_views.views
                  in
                  let expected =
                    Relational.Relation.contents
                      (Query.View.materialize
                         (Source.Sources.state result.sources c)
                         view)
                  in
                  let actual =
                    Relational.Relation.contents
                      (Relational.Database.find ws view_name)
                  in
                  Alcotest.check Helpers.bag
                    (Printf.sprintf "ws%d %s@ss%d" j view_name c)
                    expected actual)
                per_view)
            chain;
          (* Per-view monotonicity of the witness chain. *)
          let by_view name =
            List.map (fun per_view -> List.assoc name per_view) chain
          in
          List.iter
            (fun v ->
              let cs = by_view (Query.View.name v) in
              Alcotest.(check bool)
                (Query.View.name v ^ " monotone")
                true
                (List.sort compare cs = cs))
            Workload.Scenarios.paper_views.views);
    case "no witness for an inconsistent run" (fun () ->
        let result =
          System.run
            { (System.default Workload.Scenarios.paper_views) with
              merge_kind = System.Force_passthrough;
              arrival = System.Poisson 300.0;
              seed = 2 }
        in
        let verdict, witness = System.verdict_with_witness result in
        if not verdict.strongly_consistent then
          Alcotest.(check bool) "no witness" true (witness = None));
    case "a 300-transaction retail_star run derives its cache indexes"
      (fun () ->
        let open Relational in
        let star = Workload.Scenarios.retail_star in
        let spec source relation schema rows =
          { Source.Sources.source; relation;
            init = Relation.of_tuples schema (List.map Tuple.ints rows) }
        in
        let product sku = [ sku; 10 * (1 + (sku mod 10)) ] in
        (* Sale [i] (sku, store, qty): the initial table holds sales
           0..599, so sale [i] of a modify below is always present. *)
        let sale ?(qty = 0) i =
          [ i mod 100; i mod 8; (if qty = 0 then 1 + (i mod 20) else qty) ]
        in
        (* Every tenth transaction inserts a product, so the managers
           probe the sales side after it changed; the rest insert or
           re-quantify sales, which probes the product and store
           sides. *)
        let script n =
          List.init n (fun i ->
              match i mod 10 with
              | 9 -> [ Update.insert "product" (Tuple.ints (product (100 + i))) ]
              | 7 | 8 ->
                [ Update.modify "sales"
                    ~before:(Tuple.ints (sale i))
                    ~after:(Tuple.ints (sale ~qty:(50 + i) i)) ]
              | _ -> [ Update.insert "sales" (Tuple.ints (sale i)) ])
        in
        let run n =
          let scen =
            { star with
              Workload.Scenarios.name = "retail-star-300";
              specs =
                [ spec "pos" "sales"
                    (Helpers.int_schema [ "sku"; "store"; "qty" ])
                    (List.init 600 sale);
                  spec "catalog" "product"
                    (Helpers.int_schema [ "sku"; "cat" ])
                    (List.init 100 product);
                  spec "catalog" "store"
                    (Helpers.int_schema [ "store"; "region" ])
                    (List.init 8 (fun s -> [ s; 100 * (1 + (s mod 4)) ])) ];
              script = script n }
          in
          let r =
            System.run
              { (System.default scen) with
                arrival = System.Poisson 50.0;
                seed = 5 }
          in
          let m = r.System.metrics in
          ( Atomic.get m.Metrics.index_builds,
            Atomic.get m.Metrics.index_derived,
            Atomic.get m.Metrics.index_flattens )
        in
        let initial, _, _ = run 30 in
        let builds, derived, flattens = run 300 in
        Alcotest.(check bool) "indexes were derived" true (derived > 0);
        if builds > flattens + initial then
          Alcotest.failf
            "%d index builds in 300 transactions; the first 30 built %d and \
             %d derived indexes were flattened"
            builds initial flattens);
    case "default latencies are positive" (fun () ->
        let l = System.default_latencies in
        Alcotest.(check bool) "all positive" true
          (l.message > 0.0 && l.compute > 0.0 && l.commit > 0.0
          && l.query_roundtrip > 0.0 && l.merge > 0.0)) ]
