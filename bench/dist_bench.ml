(* Distributed warehouse benchmark and smoke.

   [run] sweeps shard count x tenant skew over the seeded multi-tenant
   workload and writes BENCH_dist.json. The headline is
   [tenant_scaling_ratio]: per-shard merge events per source update when
   the tenant population quadruples at a fixed shard count, relative to
   the base population. Sharding by tenant means each (single-tenant)
   update wakes exactly one shard, so the ratio should stay ~1.0 —
   growth in tenants spreads over the shards instead of multiplying
   every merge process's inbox.

   [distsmoke] backs the @dist-smoke alias: a deterministic check that
   shards 1, 2 and 4 serve byte-identical union contents (all equal to
   direct evaluation over the final source state), stay certified under
   a message-dropping fault plan with ARQ links, and keep the scaling
   ratio under 1.2. Exits nonzero on any divergence.

   [diff_rows] is the @diff-smoke row for the sharding axis itself. *)

open Relational
open Whips

let quick () = !Micro.quick

let workload ~tenants ~skew ~n_transactions =
  Workload.Tenants.generate
    { Workload.Tenants.default with tenants; skew; n_transactions; seed = 42 }

type cell = {
  shards : int;
  tenants : int;
  skew : float;
  events_per_update : float;
  mean_fanout : float;
  union_reads : int;
  certified : bool;
  complete : bool;
}

let config ~shards w =
  { (System.default w.Workload.Tenants.scenario) with
    sharding = Some (System.tenant_sharding ~shards w);
    seed = 43 }

(* Mean merge-server messages per source transaction per non-empty
   shard: the per-shard merge load as tenants scale. *)
let merge_events_per_update (r : System.result) =
  let active =
    List.filter
      (fun sh -> sh.System.sh_views <> [])
      (Option.get r.System.sharded).System.per_shard
  in
  let n_active = List.length active in
  let n_txns = List.length r.System.transactions in
  if n_active = 0 || n_txns = 0 then 0.0
  else
    float_of_int
      (List.fold_left (fun acc sh -> acc + sh.System.sh_merge_events) 0 active)
    /. float_of_int n_active /. float_of_int n_txns

let certified (r : System.result) =
  (not r.System.stuck)
  && Consistency.Checker.certified_distributed
       (System.distributed_certificate r)

let complete (r : System.result) =
  List.for_all
    (fun (_, v) -> Consistency.Checker.at_least Consistency.Checker.Complete v)
    (System.shard_verdicts r)

let run_cell ~shards ~tenants ~skew ~n_transactions =
  let w = workload ~tenants ~skew ~n_transactions in
  let r = System.run (config ~shards w) in
  ( { shards;
      tenants;
      skew;
      events_per_update = merge_events_per_update r;
      mean_fanout = Sim.Stats.Summary.mean r.System.metrics.Metrics.routed_shards;
      union_reads = Atomic.get r.System.metrics.Metrics.union_reads;
      certified = certified r;
      complete = complete r },
    r )

let cell_json c =
  Printf.sprintf
    "    { \"shards\": %d, \"tenants\": %d, \"skew\": %.1f,\n\
     \      \"events_per_update\": %.4f, \"mean_fanout\": %.4f,\n\
     \      \"union_reads\": %d, \"certified\": %b, \"complete\": %b }"
    c.shards c.tenants c.skew c.events_per_update c.mean_fanout c.union_reads
    c.certified c.complete

let write_json ~sweep ~scaling ~headline_events ~certified_all =
  let oc = open_out "BENCH_dist.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe dist\",\n\
    \  \"quick\": %b,\n\
    \  \"note\": \"simulated-time distributed warehouse: tenant-sharded \
     merge processes, cross-shard union views, certified global cuts\",\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"dist_merge_events_per_update\": %.4f,\n\
    \  \"tenant_scaling_ratio\": %.4f,\n\
    \  \"certified_all\": %b\n\
     }\n"
    (quick ())
    (String.concat ",\n" (List.map cell_json sweep))
    headline_events scaling certified_all;
  close_out oc;
  Printf.printf "wrote BENCH_dist.json\n%!"

let run () =
  Tables.section "dist: shard count x tenant skew";
  let n_transactions = if quick () then 32 else 96 in
  let shard_counts = if quick () then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let skews = if quick () then [ 0.0; 1.5 ] else [ 0.0; 1.0; 2.0 ] in
  let sweep =
    List.concat_map
      (fun shards ->
        List.map
          (fun skew ->
            fst (run_cell ~shards ~tenants:8 ~skew ~n_transactions))
          skews)
      shard_counts
  in
  Tables.print ~title:"per-shard merge load (8 tenants)"
    ~header:
      [ "shards"; "skew"; "events/update"; "fanout"; "reads"; "certified" ]
    (List.map
       (fun c ->
         [ string_of_int c.shards;
           Printf.sprintf "%.1f" c.skew;
           Printf.sprintf "%.3f" c.events_per_update;
           Printf.sprintf "%.2f" c.mean_fanout;
           string_of_int c.union_reads;
           string_of_bool (c.certified && c.complete) ])
       sweep);
  (* Tenant scaling at a fixed shard count: quadruple the tenant
     population and compare per-shard merge events per update. *)
  let base, _ = run_cell ~shards:4 ~tenants:4 ~skew:1.0 ~n_transactions in
  let scaled, _ = run_cell ~shards:4 ~tenants:16 ~skew:1.0 ~n_transactions in
  let scaling =
    if base.events_per_update > 0.0 then
      scaled.events_per_update /. base.events_per_update
    else 0.0
  in
  Tables.print ~title:"tenant scaling at 4 shards (4 -> 16 tenants)"
    ~header:[ "tenants"; "events/update"; "certified" ]
    (List.map
       (fun c ->
         [ string_of_int c.tenants;
           Printf.sprintf "%.3f" c.events_per_update;
           string_of_bool (c.certified && c.complete) ])
       [ base; scaled ]);
  Printf.printf "tenant_scaling_ratio: %.3f (flat load target: <= 1.2)\n%!"
    scaling;
  let certified_all =
    List.for_all (fun c -> c.certified && c.complete) (base :: scaled :: sweep)
  in
  let headline_events =
    match List.find_opt (fun c -> c.shards = 4 && c.skew > 0.0) sweep with
    | Some c -> c.events_per_update
    | None -> base.events_per_update
  in
  write_json ~sweep:(sweep @ [ base; scaled ]) ~scaling ~headline_events
    ~certified_all

(* --- @dist-smoke ------------------------------------------------- *)

let fault_plan =
  Workload.Fault_plan.union
    [ Workload.Fault_plan.random ~drop:0.1 ~duplicate:0.05 "integ->*";
      Workload.Fault_plan.random ~drop:0.1 "*->merge" ]

let smoke_run ~shards w =
  System.run
    { (config ~shards w) with
      fault_plan;
      reliability = System.Acked Sim.Reliable.default_params }

let shard_count (r : System.result) =
  (Option.get r.System.config.System.sharding).System.shards

let distsmoke () =
  Tables.section "dist-smoke: shards 1/2/4 trace-equivalent";
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "  FAIL %s\n%!" msg)
      fmt
  in
  let w = workload ~tenants:6 ~skew:1.0 ~n_transactions:40 in
  let runs = List.map (fun shards -> smoke_run ~shards w) [ 1; 2; 4 ] in
  List.iter
    (fun (r : System.result) ->
      let shards = shard_count r in
      if r.System.stuck then fail "shards=%d: run did not drain" shards;
      if not (certified r) then
        fail "shards=%d: %a" shards
          (fun () c -> Fmt.str "%a" Consistency.Checker.pp_distributed c)
          (System.distributed_certificate r);
      List.iter
        (fun (s, v) ->
          if not (Consistency.Checker.at_least Consistency.Checker.Complete v)
          then fail "shards=%d: shard %d below Complete" shards s)
        (System.shard_verdicts r))
    runs;
  (* Every shard count must serve the same final union contents, and
     those must equal direct evaluation over the final source state. *)
  (match runs with
  | (r1 : System.result) :: rest ->
    let views = w.Workload.Tenants.scenario.Workload.Scenarios.views in
    let expected (r : System.result) (u : Dist.Union_view.t) =
      let final = Source.Sources.current r.System.sources in
      List.fold_left
        (fun acc (_, leg) ->
          let v = List.find (fun v -> Query.View.name v = leg) views in
          Bag.union acc (Relation.contents (Query.View.materialize final v)))
        Bag.empty u.Dist.Union_view.legs
    in
    List.iter
      (fun (u : Dist.Union_view.t) ->
        let name = u.Dist.Union_view.name in
        let reference = System.union_contents r1 name in
        if not (Bag.equal reference (expected r1 u)) then
          fail "%s: shards=1 diverges from direct evaluation" name;
        List.iter
          (fun (r : System.result) ->
            if not (Bag.equal reference (System.union_contents r name)) then
              fail "%s: shards=%d diverges from shards=1" name (shard_count r))
          rest)
      (Option.get r1.System.sharded).System.unions
  | [] -> fail "no runs");
  (* The flat-load acceptance bound, deterministically. *)
  let base, _ = run_cell ~shards:4 ~tenants:4 ~skew:1.0 ~n_transactions:32 in
  let scaled, _ = run_cell ~shards:4 ~tenants:16 ~skew:1.0 ~n_transactions:32 in
  let ratio =
    if base.events_per_update > 0.0 then
      scaled.events_per_update /. base.events_per_update
    else infinity
  in
  if ratio > 1.2 then
    fail "tenant scaling ratio %.3f exceeds 1.2 (merge load not flat)" ratio
  else
    Printf.printf "  tenant scaling ratio %.3f (<= 1.2)\n%!" ratio;
  if !failures = 0 then
    Printf.printf
      "dist-smoke OK: shards 1/2/4 certified and trace-equivalent\n%!"
  else begin
    Printf.printf "dist-smoke: %d failure(s)\n%!" !failures;
    exit 1
  end

(* ---- @diff-smoke row ---- *)

(* One shard with no union views is the unsharded pipeline: same links,
   names and RNG draws, so every trace the harness compares — served
   session reads included — must be identical. *)
let diff_rows =
  let generated =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 43;
        n_relations = 4;
        n_views = 3;
        n_transactions = 12;
        initial_tuples = 6 }
  in
  let reads cfg = { cfg with System.reads = Some System.default_reads } in
  [ { Diffsmoke.name = "shards: one shard == unsharded";
      scenarios = Workload.Scenarios.all @ [ generated ];
      domains = [ 1; 4 ];
      left = reads;
      right =
        Some
          (fun cfg ->
            { (reads cfg) with
              sharding =
                Some
                  { System.shards = 1; tenant_of = (fun _ -> 0);
                    union_views = [] } });
      extra = Diffsmoke.no_extra } ]
