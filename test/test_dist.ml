(* The distributed warehouse: router, union views, global cuts, the
   certified end-to-end runs, and the N=1 oracle (a cross-shard union
   view must serve exactly what a single-shard run — and a direct
   evaluation over the final source state — produces). *)

open Relational
open Whips

let case = Helpers.case

let tenant_of_name name =
  (* sales_t<k> / hot_t<k> *)
  match String.rindex_opt name 't' with
  | Some i -> int_of_string (String.sub name (i + 1) (String.length name - i - 1))
  | None -> invalid_arg name

let workload ?(tenants = 4) ?(skew = 1.0) ?(n_transactions = 24) ?(seed = 7) () =
  Workload.Tenants.generate
    { Workload.Tenants.default with tenants; skew; n_transactions; seed }

let config ?(shards = 2) ?(seed = 11) w =
  { (System.default w.Workload.Tenants.scenario) with
    sharding = Some (System.tenant_sharding ~shards w);
    seed }

let with_shards shards (cfg : System.config) =
  { cfg with
    sharding =
      Option.map (fun sh -> { sh with System.shards }) cfg.System.sharding }

let sharded (r : System.result) = Option.get r.System.sharded

let unions r = (sharded r).System.unions

(* Ground truth: evaluate every leg over the final source state and
   union the results. *)
let expected_union (r : System.result) (u : Dist.Union_view.t) =
  let final = Source.Sources.current r.System.sources in
  let views = r.System.config.System.scenario.Workload.Scenarios.views in
  List.fold_left
    (fun acc (_, leg) ->
      let v = List.find (fun v -> Query.View.name v = leg) views in
      Bag.union acc (Relation.contents (Query.View.materialize final v)))
    Bag.empty u.Dist.Union_view.legs

let check_run (r : System.result) =
  Alcotest.(check bool) "drained" false r.System.stuck;
  List.iter
    (fun (s, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d complete MVC" s)
        true
        (Consistency.Checker.at_least Consistency.Checker.Complete v))
    (System.shard_verdicts r);
  let cert = System.distributed_certificate r in
  Alcotest.(check bool)
    (Fmt.str "distributed certificate: %a" Consistency.Checker.pp_distributed
       cert)
    true
    (Consistency.Checker.certified_distributed cert);
  List.iter
    (fun (u : Dist.Union_view.t) ->
      Alcotest.check Helpers.bag
        (u.Dist.Union_view.name ^ " matches direct evaluation")
        (expected_union r u)
        (System.union_contents r u.Dist.Union_view.name))
    (unions r)

(* One line per shard (committed row sequence, merge events, emitted
   WTs, WAL appends) plus one per union read (its cut vector): the
   record the distributed golden pins. *)
let golden_lines (r : System.result) =
  List.map
    (fun (sh : System.shard_result) ->
      Fmt.str "shard %d rows [%a] events %d wts %d wal %d" sh.System.sh_id
        Fmt.(list ~sep:(any ";") (list ~sep:(any ",") int))
        (List.map
           (fun (c : Warehouse.Store.commit) ->
             c.Warehouse.Store.transaction.Warehouse.Wt.rows)
           (Warehouse.Store.commits sh.System.sh_store))
        sh.System.sh_merge_events sh.System.sh_wts sh.System.sh_wal_appends)
    (sharded r).System.per_shard
  @ List.map
      (fun (c : Consistency.Checker.cut_read) ->
        Fmt.str "read %d cut [%a]" c.Consistency.Checker.cr_session
          Fmt.(list ~sep:(any ";") (pair ~sep:(any ":") int int))
          c.Consistency.Checker.cr_vector)
      (sharded r).System.cut_reads
  @ [ Fmt.str "dropped %d retransmits %d"
        (Atomic.get r.System.metrics.Metrics.msgs_dropped)
        (Atomic.get r.System.metrics.Metrics.retransmits) ]

let acked = System.Acked Sim.Reliable.default_params

(* Seed 42, acked links under a random fault plan, durable shards. *)
let golden_cfg shards =
  let plan =
    Workload.Fault_plan.union
      [ Workload.Fault_plan.random ~drop:0.15 ~duplicate:0.1 "integ->*";
        Workload.Fault_plan.random ~drop:0.15 "*->merge*" ]
  in
  { (config ~shards ~seed:42 (workload ~tenants:6 ~n_transactions:24 ())) with
    fault_plan = plan;
    reliability = acked;
    durable = Some System.default_durability }

let golden_run shards = System.run (golden_cfg shards)

let ported_tests =
  [ case "router assigns by tenant mod shards" (fun () ->
        let router = Dist.Router.create ~shards:2 ~tenant_of:tenant_of_name in
        Alcotest.(check int) "t0 -> shard 0" 0
          (Dist.Router.shard_of_view router "sales_t0");
        Alcotest.(check int) "t3 -> shard 1" 1
          (Dist.Router.shard_of_view router "hot_t3"));
    case "router fans out only to affected shards" (fun () ->
        let router = Dist.Router.create ~shards:3 ~tenant_of:tenant_of_name in
        let fan_out =
          Integrator.route_shards
            ~assignment:(Dist.Router.shard_of_view router)
        in
        Alcotest.(check (list (pair int (list string))))
          "tenant-1 update wakes only shard 1"
          [ (1, [ "sales_t1"; "hot_t1" ]) ]
          (fan_out [ "sales_t1"; "hot_t1" ]);
        Alcotest.(check (list (pair int (list string))))
          "cross-tenant REL splits by shard"
          [ (0, [ "sales_t0"; "sales_t3" ]); (2, [ "hot_t2" ]) ]
          (fan_out [ "sales_t0"; "hot_t2"; "sales_t3" ]));
    case "union view places legs and lists shards" (fun () ->
        let router = Dist.Router.create ~shards:2 ~tenant_of:tenant_of_name in
        let u =
          Dist.Union_view.make ~name:"sales_all"
            ~assignment:(Dist.Router.shard_of_view router)
            [ "sales_t0"; "sales_t1"; "sales_t2" ]
        in
        Alcotest.(check (list (pair int string)))
          "legs sorted by shard, stable within"
          [ (0, "sales_t0"); (0, "sales_t2"); (1, "sales_t1") ]
          u.Dist.Union_view.legs;
        Alcotest.(check (list int)) "shards" [ 0; 1 ] (Dist.Union_view.shards u));
    case "tenant workload is seeded and single-tenant" (fun () ->
        let w1 = workload () and w2 = workload () in
        Alcotest.(check bool) "same seed, same script" true
          (w1.Workload.Tenants.scenario.Workload.Scenarios.script
          = w2.Workload.Tenants.scenario.Workload.Scenarios.script);
        List.iter
          (fun updates ->
            let tenants =
              List.map (fun u -> tenant_of_name u.Update.relation) updates
              |> List.sort_uniq compare
            in
            Alcotest.(check int) "one tenant per transaction" 1
              (List.length tenants))
          w1.Workload.Tenants.scenario.Workload.Scenarios.script);
    case "tenant_of agrees with tenant_of_view and rejects unknown names"
      (fun () ->
        let w = workload ~tenants:7 () in
        Alcotest.(check int) "every leg listed" 14
          (List.length w.Workload.Tenants.tenant_of_view);
        List.iter
          (fun (view, t) ->
            Alcotest.(check int) view t (Workload.Tenants.tenant_of w view))
          w.Workload.Tenants.tenant_of_view;
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " raises Not_found") true
              (match Workload.Tenants.tenant_of w name with
              | exception Not_found -> true
              | _ -> false))
          [ "sales_t7"; "orders_t0"; "sales_all"; "" ]);
    case "zipf skew concentrates on low ranks" (fun () ->
        let rng = Sim.Rng.create 5 in
        let counts = Array.make 4 0 in
        for _ = 1 to 2000 do
          let i = Workload.Tenants.zipf rng ~skew:1.5 4 in
          counts.(i) <- counts.(i) + 1
        done;
        Alcotest.(check bool) "rank 0 beats rank 3" true
          (counts.(0) > 3 * counts.(3));
        let rng = Sim.Rng.create 5 in
        for _ = 1 to 100 do
          let i = Workload.Tenants.zipf rng ~skew:0.0 7 in
          Alcotest.(check bool) "in range" true (i >= 0 && i < 7)
        done);
    case "legs are union-compatible across tenants" (fun () ->
        let w = workload () in
        let sources = Workload.Scenarios.sources w.Workload.Tenants.scenario in
        let db = Source.Sources.initial sources in
        List.iter
          (fun (_, legs) ->
            let schemas =
              List.map
                (fun leg ->
                  let v =
                    List.find
                      (fun v -> Query.View.name v = leg)
                      w.Workload.Tenants.scenario.Workload.Scenarios.views
                  in
                  Relation.schema (Query.View.materialize db v))
                legs
            in
            match schemas with
            | [] -> Alcotest.fail "no legs"
            | s :: rest ->
              List.iter
                (fun s' -> Alcotest.check Helpers.schema "same schema" s s')
                rest)
          w.Workload.Tenants.unions);
    case "golden: seed 42 under acked links, faults and WAL, 2 and 4 shards"
      (fun () ->
        let expect shards lines =
          let r = golden_run shards in
          check_run r;
          Alcotest.(check (list string))
            (Printf.sprintf "%d shards" shards)
            lines (golden_lines r)
        in
        expect 2
          [ "shard 0 rows [1;3;2;4;5;6;7;8;10;11;12;13;14;16;18;17;19;20;22] \
             events 50 wts 19 wal 19";
            "shard 1 rows [9;15;21;23;24] events 12 wts 5 wal 5";
            "read 0 cut [0:1;1:0]"; "read 1 cut [0:4;1:0]";
            "read 0 cut [0:7;1:0]"; "read 1 cut [0:8;1:1]";
            "read 0 cut [0:11;1:1]"; "read 1 cut [0:12;1:1]";
            "read 0 cut [0:15;1:2]"; "read 1 cut [0:18;1:2]";
            "read 0 cut [0:19;1:5]"; "read 1 cut [0:19;1:5]";
            "dropped 28 retransmits 27" ];
        expect 4
          [ "shard 0 rows [2;4;5;6;7;8;10;11;12;13;14;16;18;20;22] events 38 \
             wts 15 wal 15";
            "shard 1 rows [9;15;21;24] events 9 wts 4 wal 4";
            "shard 2 rows [1;3;17;19] events 12 wts 4 wal 4";
            "shard 3 rows [23] events 3 wts 1 wal 1";
            "read 0 cut [0:0;1:0;2:1;3:0]"; "read 1 cut [0:2;1:0;2:2;3:0]";
            "read 0 cut [0:5;1:0;2:2;3:0]"; "read 1 cut [0:6;1:1;2:2;3:0]";
            "read 0 cut [0:8;1:1;2:2;3:0]"; "read 1 cut [0:11;1:1;2:2;3:0]";
            "read 0 cut [0:12;1:2;2:3;3:0]"; "read 1 cut [0:14;1:3;2:3;3:0]";
            "read 0 cut [0:15;1:4;2:4;3:1]"; "read 1 cut [0:15;1:4;2:4;3:1]";
            "dropped 24 retransmits 18" ]);
    case "two shards: certified, complete per shard, oracle-exact" (fun () ->
        check_run (System.run (config ~shards:2 (workload ()))));
    case "four shards with skew: certified and oracle-exact" (fun () ->
        check_run
          (System.run (config ~shards:4 (workload ~tenants:8 ~skew:1.5 ()))));
    case "single-tenant updates route to exactly one shard" (fun () ->
        let r = System.run (config ~shards:4 (workload ~tenants:8 ())) in
        Alcotest.(check bool) "mean fanout = 1" true
          (Sim.Stats.Summary.mean r.System.metrics.Metrics.routed_shards = 1.0));
    case "cross-shard contents match the N=1 oracle" (fun () ->
        let w = workload ~tenants:6 ~n_transactions:30 () in
        let r1 = System.run (config ~shards:1 w) in
        let r3 = System.run (config ~shards:3 w) in
        List.iter
          (fun (u : Dist.Union_view.t) ->
            Alcotest.check Helpers.bag u.Dist.Union_view.name
              (System.union_contents r1 u.Dist.Union_view.name)
              (System.union_contents r3 u.Dist.Union_view.name))
          (unions r3));
    case "fault plan + ARQ: still certified and oracle-exact" (fun () ->
        let w = workload ~tenants:4 ~n_transactions:20 () in
        let plan =
          Workload.Fault_plan.union
            [ Workload.Fault_plan.random ~drop:0.15 ~duplicate:0.1 "integ->*";
              Workload.Fault_plan.random ~drop:0.15 "*->merge";
              Workload.Fault_plan.nth ~channel:"integ->merge" ~nth:3
                Workload.Fault_plan.Drop ]
        in
        let r =
          System.run
            { (config ~shards:2 w) with fault_plan = plan; reliability = acked }
        in
        Alcotest.(check bool) "faults actually fired" true
          (Atomic.get r.System.metrics.Metrics.msgs_dropped > 0);
        check_run r);
    case "durable shards log every commit write-ahead" (fun () ->
        let r =
          System.run
            { (config ~shards:2 (workload ())) with
              durable = Some System.default_durability }
        in
        List.iter
          (fun (sh : System.shard_result) ->
            Alcotest.(check int)
              (Printf.sprintf "shard %d WAL covers its commits" sh.System.sh_id)
              (Warehouse.Store.commit_count sh.System.sh_store)
              sh.System.sh_wal_appends)
          (sharded r).System.per_shard);
    case "certificate rejects tampered reads" (fun () ->
        let r = System.run (config ~shards:2 (workload ())) in
        let states =
          List.map
            (fun (sh : System.shard_result) ->
              Warehouse.Store.states sh.System.sh_store)
            (sharded r).System.per_shard
        in
        let genuine = List.hd (sharded r).System.cut_reads in
        let tampered_result =
          { genuine with
            Consistency.Checker.cr_result =
              Bag.add
                (Tuple.ints [ 99; 99; 99 ])
                genuine.Consistency.Checker.cr_result }
        in
        let c =
          Consistency.Checker.certify_distributed ~shard_states:states
            ~reads:[ tampered_result ]
        in
        Alcotest.(check bool) "forged contents caught" false
          c.Consistency.Checker.cut_exact;
        let dup_shard =
          { genuine with
            Consistency.Checker.cr_vector =
              (match genuine.Consistency.Checker.cr_vector with
              | (s, v) :: rest -> (s, v) :: (s, v + 1) :: rest
              | [] -> []) }
        in
        let c =
          Consistency.Checker.certify_distributed ~shard_states:states
            ~reads:[ dup_shard ]
        in
        Alcotest.(check bool) "shard observed twice caught" false
          c.Consistency.Checker.cut_complete;
        let out_of_range =
          { genuine with
            Consistency.Checker.cr_vector =
              List.map
                (fun (s, _) -> (s, 100000))
                genuine.Consistency.Checker.cr_vector }
        in
        let c =
          Consistency.Checker.certify_distributed ~shard_states:states
            ~reads:[ out_of_range ]
        in
        Alcotest.(check bool) "unrecorded version caught" false
          c.Consistency.Checker.cut_bounded;
        (* A session whose second read moves a shard backwards. *)
        let advanced =
          { genuine with
            Consistency.Checker.cr_vector =
              List.map
                (fun (s, v) -> (s, v + 1))
                genuine.Consistency.Checker.cr_vector;
            cr_result = Bag.empty }
        in
        let c =
          Consistency.Checker.certify_distributed ~shard_states:states
            ~reads:[ advanced; genuine ]
        in
        Alcotest.(check bool) "time travel caught" false
          c.Consistency.Checker.cut_monotonic);
    Helpers.qcheck ~count:12
      "qcheck: N-shard union == N=1 oracle, with and without faults"
      QCheck2.Gen.(
        tup4 (int_range 0 1000) (int_range 2 6) (int_range 2 5) bool)
      (fun (seed, tenants, shards, faulty) ->
        let w = workload ~tenants ~n_transactions:16 ~seed () in
        let base = config ~shards ~seed:(seed + 1) w in
        let cfg =
          if faulty then
            { base with
              fault_plan =
                Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05 "integ->*";
              reliability = acked }
          else base
        in
        let r = System.run cfg in
        let r1 = System.run (with_shards 1 cfg) in
        (not r.System.stuck)
        && Consistency.Checker.certified_distributed
             (System.distributed_certificate r)
        && List.for_all
             (fun (u : Dist.Union_view.t) ->
               let name = u.Dist.Union_view.name in
               Bag.equal
                 (System.union_contents r name)
                 (System.union_contents r1 name)
               && Bag.equal (System.union_contents r name) (expected_union r u))
             (unions r)) ]

(* ---- the sharding axis of System.config ---- *)

let rejects name expected cfg =
  case name (fun () ->
      Alcotest.check_raises "invalid_arg" (Invalid_argument expected)
        (fun () -> ignore (System.run cfg)))

let reshard f (cfg : System.config) =
  { cfg with sharding = Option.map f cfg.System.sharding }

(* The metrics report without its distributed line: routed_shards is
   sampled only in sharded runs. *)
let metrics_lines (r : System.result) =
  Fmt.str "%a" Metrics.pp r.System.metrics
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         not (String.starts_with ~prefix:"distributed:" (String.trim l)))

let commit_history (r : System.result) =
  List.map
    (fun (c : Warehouse.Store.commit) ->
      ( c.Warehouse.Store.transaction.Warehouse.Wt.rows,
        Fmt.str "%a" Database.pp c.Warehouse.Store.state ))
    (Warehouse.Store.commits r.System.store)

let axis_tests =
  let two = config ~shards:2 (workload ()) in
  [ case "one shard without union views == unsharded" (fun () ->
        let w = workload ~tenants:4 () in
        let plain =
          { (System.default w.Workload.Tenants.scenario) with
            record_timeline = true;
            reliability = acked;
            fault_plan =
              Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05 "*";
            durable = Some System.default_durability;
            seed = 5 }
        in
        let one =
          { plain with
            sharding =
              Some
                { (System.tenant_sharding ~shards:1 w) with union_views = [] }
          }
        in
        (* The scenario's initial relations memoize their indexes across
           runs, so a warm-up run makes both compared runs start warm. *)
        ignore (System.run plain);
        let a = System.run plain in
        let b = System.run one in
        Alcotest.(check (list (pair (list int) string)))
          "commit history" (commit_history a) (commit_history b);
        Alcotest.(check (list string))
          "metrics" (metrics_lines a) (metrics_lines b);
        Alcotest.(check (list (pair (float 0.0) string)))
          "timeline" a.System.timeline b.System.timeline;
        Alcotest.(check bool) "timeline recorded" true (a.System.timeline <> []));
    rejects "sharding rejects zero shards"
      "System: sharding needs at least one shard"
      (reshard (fun sh -> { sh with shards = 0 }) two);
    rejects "sharding rejects the Sequential baseline"
      "System: sharding needs the pipelined runtime (the Sequential baseline \
       has no merge)"
      { two with merge_kind = System.Sequential };
    rejects "sharding rejects process crashes over two shards"
      "System: sharding over more than one shard excludes process crash \
       faults (recovery assumes one warehouse)"
      { two with
        reliability = acked;
        faults = [ System.Crash_merge { at_event = 3; restart_after = 0.05 } ]
      };
    rejects "sharding rejects session reads over two shards"
      "System: sharding over more than one shard excludes session reads \
       (union reads are the sharded read path)"
      { two with reads = Some System.default_reads };
    rejects "sharding rejects Fused merging over two shards"
      "System: sharding over more than one shard excludes Fused merging (the \
       fused certificate covers one warehouse)"
      { two with merge_batch = System.Fused };
    rejects "sharding rejects a placement splitting a view family"
      "System: sharding placement refused: Partition.coarsen: fine group \
       {V1->shard 0, V2->shard 1, V3->shard 1} straddles shards 0 and 1 \
       (views V1 and V2 share a base-relation closure but are pinned to \
       different shards; views sharing base relations must share a shard)"
      { (System.default Workload.Scenarios.paper_views) with
        sharding =
          Some
            { System.shards = 2;
              tenant_of = (fun v -> if v = "V1" then 0 else 1);
              union_views = [] } };
    case "single-store accessors refuse a run of two shards" (fun () ->
        Alcotest.check_raises "verdict"
          (Invalid_argument "System: the run has 2 shards; use shard_verdicts")
          (fun () -> ignore (System.verdict (System.run two))));
    Helpers.qcheck ~count:12
      "qcheck: shards x managers x merge groups x faults: drained, certified, \
       promised level, exact unions"
      QCheck2.Gen.(
        tup5 (int_range 0 1000) (oneofl [ 1; 2; 4 ])
          (oneofl [ System.Complete_vm; System.Selfmaint_vm; System.Batching_vm ])
          bool bool)
      (fun (seed, shards, vm_kind, grouped, faulty) ->
        let w = workload ~tenants:4 ~n_transactions:16 ~seed () in
        let views = w.Workload.Tenants.scenario.Workload.Scenarios.views in
        let base =
          { (config ~shards ~seed:(seed + 1) w) with
            vm_kind;
            merge_groups = (if grouped then Some (2 * shards) else None) }
        in
        let cfg =
          if faulty then
            { base with
              reliability = acked;
              fault_plan =
                Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05 "*";
              faults =
                [ System.Crash_vm
                    { view =
                        Query.View.name
                          (List.nth views (seed mod List.length views));
                      at_event = 1 + (seed mod 3);
                      restart_after = 0.05 } ] }
          else base
        in
        let promised =
          match vm_kind with
          | System.Batching_vm -> Consistency.Checker.Strong
          | _ -> Consistency.Checker.Complete
        in
        let r = System.run cfg in
        let r1 = System.run (with_shards 1 cfg) in
        (not r.System.stuck)
        && Consistency.Checker.certified_distributed
             (System.distributed_certificate r)
        && List.for_all
             (fun (_, v) -> Consistency.Checker.at_least promised v)
             (System.shard_verdicts r)
        && List.for_all
             (fun (u : Dist.Union_view.t) ->
               let name = u.Dist.Union_view.name in
               Bag.equal (System.union_contents r name) (expected_union r u)
               && Bag.equal
                    (System.union_contents r name)
                    (System.union_contents r1 name))
             (unions r)) ]

let tests = ported_tests @ axis_tests
