(* Self-maintaining view managers: derived auxiliary projections must be
   an invisible storage choice. The derivation unit tests pin the demand
   analysis; the oracle runs whole systems under Selfmaint_vm,
   Complete_vm and the sequential strawman across seeds and domain
   counts, and requires identical traces; the tamper test shows the
   checker catches corrupted auxiliary state. *)

open Relational
open Query

let case = Helpers.case

module System = Whips.System
module Metrics = Whips.Metrics

(* ---- derivation ---- *)

let rs = Helpers.int_schema [ "A"; "B" ]

let ss = Helpers.int_schema [ "B"; "C" ]

let schemas = function
  | "R" -> rs
  | "S" -> ss
  | r -> invalid_arg r

let aux_for auxes r =
  List.find (fun a -> String.equal a.Selfmaint.Derive.relation r) auxes

let derive_tests =
  [ case "projected join keeps only live + join attributes" (fun () ->
        (* pi_{A,C}(R |><| S): R needs A (output) and B (join key); S
           needs C (output) and B (join key). Both are full here because
           the bases are binary — so widen R to see a real projection. *)
        let wide =
          Helpers.int_schema [ "A"; "B"; "PAD1"; "PAD2" ]
        in
        let schemas = function
          | "R" -> wide
          | "S" -> ss
          | r -> invalid_arg r
        in
        let def =
          Algebra.(project [ "A"; "C" ] (join (base "R") (base "S")))
        in
        let auxes = Selfmaint.Derive.analyze ~schemas def in
        let r = aux_for auxes "R" and s = aux_for auxes "S" in
        Alcotest.(check (list string)) "R live" [ "A"; "B" ] r.live;
        Alcotest.(check bool) "R projected" false r.full;
        Alcotest.(check (list string)) "S live" [ "B"; "C" ] s.live;
        Alcotest.(check bool) "S full" true s.full);
    case "select adds its predicate attributes" (fun () ->
        let wide = Helpers.int_schema [ "A"; "B"; "PAD" ] in
        let schemas = function
          | "R" -> wide
          | r -> invalid_arg r
        in
        let def =
          Algebra.(
            project [ "A" ] (select (Pred.lt "B" (Value.Int 3)) (base "R")))
        in
        let auxes = Selfmaint.Derive.analyze ~schemas def in
        let r = aux_for auxes "R" in
        Alcotest.(check (list string)) "live" [ "A"; "B" ] r.live);
    case "union conservatively demands everything from bare branches"
      (fun () ->
        (* pi_A(R u sigma(R)): the projection above the union does NOT
           narrow the bases — union pushes the full demand into both
           branches, so a bare base under it stays a full replica. A
           Project inside a branch still resets the demand (it
           materializes exactly its names), which is exact. *)
        let wide = Helpers.int_schema [ "A"; "B"; "PAD" ] in
        let schemas = function
          | "R" -> wide
          | r -> invalid_arg r
        in
        let def =
          Algebra.(
            project [ "A" ]
              (union (base "R") (select (Pred.lt "B" (Value.Int 2)) (base "R"))))
        in
        let auxes = Selfmaint.Derive.analyze ~schemas def in
        Alcotest.(check int) "one aux" 1 (List.length auxes);
        Alcotest.(check bool) "full" true (List.hd auxes).full);
    case "demands union across occurrences of a relation" (fun () ->
        let wide = Helpers.int_schema [ "A"; "B"; "PAD" ] in
        let schemas = function
          | "R" -> wide
          | r -> invalid_arg r
        in
        (* One branch needs A, the other B: the shared auxiliary must
           carry both (and not PAD). *)
        let def =
          Algebra.(
            union
              (project [ "A"; "B"; "PAD" ] (base "R"))
              (project [ "A"; "B"; "PAD" ] (base "R")))
        in
        let auxes = Selfmaint.Derive.analyze ~schemas def in
        Alcotest.(check int) "one aux" 1 (List.length auxes);
        Alcotest.(check bool) "full (union)" true (List.hd auxes).full) ]

(* ---- raw manager: AL-for-AL against Complete_vm ---- *)

let drive vm txns engine =
  List.iter (fun txn -> vm.Viewmgr.Vm.receive txn) txns;
  Sim.Engine.run engine

let al_tests =
  [ case "emits the action lists of Complete_vm, list for list" (fun () ->
        let scen = Workload.Scenarios.auxiliary in
        let srcs = Workload.Scenarios.sources scen in
        let initial = Source.Sources.initial srcs in
        let txns = Workload.Scenarios.run_script scen srcs in
        let engine = Sim.Engine.create () in
        let latency ~batch:_ = 0.001 in
        List.iter
          (fun view ->
            let complete_out = ref [] and self_out = ref [] in
            let manager make_plan out =
              Viewmgr.Plan_vm.create ~engine ~compute_latency:latency
                ~drain:Viewmgr.Plan_vm.One ~plan:(make_plan ~initial view)
                ~emit:(fun al -> out := al :: !out)
                ()
            in
            let complete = manager Selfmaint.Plan.replica complete_out in
            let self = manager Selfmaint.Plan.create self_out in
            drive complete txns engine;
            drive self txns engine;
            Alcotest.(check int) "same count"
              (List.length !complete_out) (List.length !self_out);
            List.iter2
              (fun (a : Action_list.t) (b : Action_list.t) ->
                Alcotest.(check int) "same state" a.state b.state;
                match (a.payload, b.payload) with
                | Action_list.Delta da, Action_list.Delta db ->
                  Alcotest.check Helpers.signed_bag "same delta" da db
                | _ -> Alcotest.fail "expected delta payloads")
              !complete_out !self_out)
          scen.views);
    case "auxiliary storage never exceeds the replica cache" (fun () ->
        let scen = Workload.Scenarios.auxiliary in
        let initial =
          Source.Sources.initial (Workload.Scenarios.sources scen)
        in
        List.iter
          (fun view ->
            let plan = Selfmaint.Plan.create ~initial view in
            let s = Selfmaint.Plan.storage plan in
            Alcotest.(check bool) "cells bounded" true
              (s.aux_cells <= s.replica_cells);
            Alcotest.(check bool) "rows bounded" true
              (s.aux_rows <= s.replica_rows))
          scen.views) ]

(* ---- whole-system oracle ----

   For each seed: a generated scenario runs under Selfmaint_vm and under
   Complete_vm with the same config — commits, actions, the simulated
   completion instant and every view's final contents must be identical
   (the managers emit the same action lists with the same timing) — and
   under the sequential strawman, whose final contents are the naive
   ground truth, at domain counts 1 and 4. Selfmaint runs must also
   report zero source queries. *)

let final_views (r : System.result) =
  List.map
    (fun v -> System.view_contents r (View.name v))
    r.System.config.System.scenario.Workload.Scenarios.views

let signature (r : System.result) =
  let m = r.System.metrics in
  ( Atomic.get m.Metrics.commits,
    Atomic.get m.Metrics.actions_applied,
    m.Metrics.completed_at,
    final_views r )

let oracle_run seed =
  let rng = Sim.Rng.create (0x5E1F + seed) in
  let scen =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 1 + Sim.Rng.int rng 1000;
        n_views = 4;
        n_transactions = 8;
        initial_tuples = 4 }
  in
  let run_seed = Sim.Rng.int rng 10_000 in
  let cfg vm_kind merge_kind domains =
    { (System.default scen) with
      vm_kind;
      merge_kind;
      arrival = System.Poisson 80.0;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      seed = run_seed }
  in
  List.iter
    (fun domains ->
      let self = System.run (cfg System.Selfmaint_vm System.Auto domains) in
      let complete = System.run (cfg System.Complete_vm System.Auto domains) in
      let naive =
        System.run (cfg System.Selfmaint_vm System.Sequential domains)
      in
      if Atomic.get self.metrics.Metrics.source_queries <> 0 then
        QCheck2.Test.fail_reportf "seed %d: selfmaint issued source queries"
          seed;
      let c1, a1, t1, v1 = signature self
      and c2, a2, t2, v2 = signature complete in
      if
        not (c1 = c2 && a1 = a2 && t1 = t2 && List.for_all2 Bag.equal v1 v2)
      then
        QCheck2.Test.fail_reportf
          "seed %d (domains=%d): selfmaint trace diverged from Complete_vm"
          seed domains;
      if not (List.for_all2 Bag.equal v1 (final_views naive)) then
        QCheck2.Test.fail_reportf
          "seed %d (domains=%d): diverged from the sequential strawman" seed
          domains;
      let v = System.verdict self in
      if not v.complete then
        QCheck2.Test.fail_reportf
          "seed %d (domains=%d): selfmaint run not complete" seed domains)
    [ 1; 4 ];
  true

let oracle_tests =
  [ Helpers.qcheck ~count:12
      "oracle: selfmaint == complete == naive across domains"
      QCheck2.Gen.(int_range 0 1_000_000)
      oracle_run ]

(* ---- tampered auxiliary state is caught by the checker ---- *)

(* V = R |><| S; the script inserts an R row that joins an existing S
   row, so the true delta probes S's auxiliary. [tamper] corrupts the
   cache before the run (or not, for the control). *)
let tamper_drive tamper =
  let view = View.make "V" Algebra.(join (base "R") (base "S")) in
  let srcs =
    Source.Sources.create
      [ { source = "s1"; relation = "R"; init = Helpers.rel rs [ [ 1; 2 ] ] };
        { source = "s2"; relation = "S"; init = Helpers.rel ss [ [ 2; 3 ] ] } ]
  in
  let initial = Source.Sources.initial srcs in
  let plan = Selfmaint.Plan.create ~initial view in
  let cache = tamper (Selfmaint.Plan.initial_cache plan) in
  let engine = Sim.Engine.create () in
  let out = ref [] in
  let vm =
    Viewmgr.Plan_vm.create ~engine
      ~compute_latency:(fun ~batch:_ -> 0.001)
      ~state:(cache, Query.Compiled.no_groups) ~drain:Viewmgr.Plan_vm.One
      ~plan ~emit:(fun al -> out := !out @ [ al ])
      ()
  in
  let t1 =
    Source.Sources.execute srcs [ Update.insert "R" (Helpers.ints [ 7; 2 ]) ]
  in
  let t2 =
    Source.Sources.execute srcs [ Update.delete "S" (Helpers.ints [ 2; 3 ]) ]
  in
  let txns = [ t1; t2 ] in
  drive vm txns engine;
  let contents =
    List.rev
      (List.fold_left
         (fun (acc : Bag.t list) al ->
           Action_list.apply al (List.hd acc) :: acc)
         [ Relation.contents (View.materialize initial view) ]
         !out)
  in
  Consistency.Checker.check_single_view ~view ~transactions:txns
    ~source_states:(Source.Sources.states srcs) ~contents

let tamper_tests =
  [ case "a tampered auxiliary relation fails the consistency check"
      (fun () ->
        (* Drop S's only row from its auxiliary: the R insert's local
           probe then joins nothing, the emitted delta is empty where
           the truth is not, and no interleaving of source states can
           explain the resulting content history. *)
        let verdict =
          tamper_drive (fun cache ->
              Database.add "S"
                (Relation.create (Database.schema cache "S"))
                cache)
        in
        (* The run is not complete: the insert's view change never
           reached the warehouse. (It can still be strongly consistent —
           the history skips ss_1 but ends on a true state — which is
           exactly the downgrade the MVC ladder prescribes.) *)
        Alcotest.(check bool) "not complete" false verdict.complete);
    case "the untampered plan from the same state is complete" (fun () ->
        let verdict = tamper_drive (fun cache -> cache) in
        Alcotest.(check bool) "complete" true verdict.complete) ]

(* ---- distributed shards ---- *)

let dist_tests =
  [ case "selfmaint shards are trace-identical to replica shards" (fun () ->
        let tenants =
          Workload.Tenants.generate
            { Workload.Tenants.default with tenants = 3; seed = 5 }
        in
        let run selfmaint =
          Dist.System.run
            { (Dist.System.default tenants) with selfmaint; seed = 7 }
        in
        let replica = run false and self = run true in
        Alcotest.(check bool) "not stuck" false self.stuck;
        List.iter2
          (fun (a : Dist.System.shard_result) (b : Dist.System.shard_result) ->
            Alcotest.(check int) "same commits" a.sh_commits b.sh_commits;
            Alcotest.(check int) "same wts" a.sh_wts b.sh_wts;
            List.iter2
              (fun da db -> Alcotest.(check bool) "same state" true
                  (Relational.Database.equal da db))
              (Warehouse.Store.states a.sh_store)
              (Warehouse.Store.states b.sh_store))
          replica.shards self.shards;
        List.iter
          (fun (_, v) ->
            Alcotest.(check bool) "shard complete" true
              v.Consistency.Checker.complete)
          (Dist.System.shard_verdicts self)) ]

(* ---- aux WAL checkpoints hold contents only ---- *)

(* Memos hold process-local interned ids, and every cache version now
   carries derived indexes: the aux WAL checkpoints the cache through
   [Relation.contents_only], so its bytes must not depend on them. The
   bytes are the WAL's own encoding (Marshal, no sharing). *)
let checkpoint_tests =
  [ case "a checkpoint image marshals like memo-free contents" (fun () ->
        let rel =
          Helpers.rel rs (List.init 200 (fun i -> [ i; i mod 10 ]))
        and s = Helpers.rel ss (List.init 10 (fun i -> [ i; i ])) in
        ignore (Relation.index rel ~key_pos:[| 1 |]);
        ignore (Relation.columnar rel);
        ignore (Relation.index s ~key_pos:[| 0 |]);
        let cache =
          Delta.apply
            (Database.of_list [ ("R", rel); ("S", s) ])
            (Delta.changes_of_list
               [ ("R", Signed_bag.singleton (Helpers.ints [ 500; 3 ]) 1) ])
        in
        ignore (Relation.columnar (Database.find cache "R"));
        Alcotest.(check int) "the derived version carries its index" 1
          (List.length (Relation.index_stats (Database.find cache "R")));
        let bare =
          Database.map
            (fun r ->
              Relation.with_contents (Relation.create (Relation.schema r))
                (Relation.contents r))
            cache
        in
        let bytes ck = Marshal.to_bytes (ck, 9) [ Marshal.No_sharing ] in
        Alcotest.(check bool) "the memos would change the bytes" false
          (Bytes.equal (bytes cache) (bytes bare));
        Alcotest.(check bool) "the image's bytes are the contents' bytes" true
          (Bytes.equal
             (bytes (Database.map Relation.contents_only cache))
             (bytes bare));
        let wal : (Database.t * int, int) Durable.Wal.t =
          Durable.Wal.create ()
        in
        Durable.Wal.checkpoint wal (Database.map Relation.contents_only cache, 9);
        match Durable.Wal.recover wal with
        | Some (ck, 9), [] ->
          Alcotest.(check bool) "recovers the contents" true
            (Database.equal ck cache)
        | _ -> Alcotest.fail "expected the checkpoint back") ]

let tests =
  derive_tests @ al_tests @ oracle_tests @ tamper_tests @ checkpoint_tests
  @ dist_tests
