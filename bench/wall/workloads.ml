(* The four pinned traffic mixes of the wall-clock benchmark.

   Every traffic-defining field of [System.config] is pinned here —
   scenario, view-manager kind, arrival process, latencies, reads,
   retention, durability, reliability, fault plan, seed and the parallel
   runtime — so the offered load never depends on the environment
   ([MVC_DOMAINS] included). Policy knobs ([merge_batch], [submit],
   [merge_kind], ...) keep [System.default]'s values, so a change to a
   default is what the benchmark measures. Inputs are a pure function of
   the seed. *)

open Relational
open Whips

type t = {
  name : string;
  n : int;
      (** Frozen transaction count: part of the workload definition,
          because per-update cost grows with N (views and histories
          grow). *)
  config : seed:int -> n:int -> System.config;
}

(* A copy of [System.default_latencies] as of the commit that defined
   the benchmark: a later change to the defaults must not move the
   simulated schedule under the measured code. *)
let latencies =
  { System.message = 0.002; compute = 0.01; commit = 0.005;
    query_roundtrip = 0.02; merge = 0.0005; read = 0.005; read_hit = 0.0005 }

let pinned_parallel =
  { Parallel.Config.domains = 1; shards = 1; model_overlap = false }

let base ~seed scenario =
  { (System.default scenario) with
    System.vm_kind = System.Complete_vm;
    arrival = System.Poisson 50.0;
    latencies;
    faults = [];
    fault_plan = Workload.Fault_plan.empty;
    reliability = System.Off;
    durable = None;
    reads = None;
    store_retention = Warehouse.Store.Keep_last 64;
    record_timeline = false;
    parallel = pinned_parallel;
    seed }

let int_schema names =
  Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

let spec source relation schema rows =
  { Source.Sources.source; relation; init = Relation.of_tuples schema rows }

(* ---- star-maintain ----

   Write-only: every insert into [hot] is relevant to all 8 views and
   the views grow, so view-manager deltas, the merge and store run
   planning do almost all the work; serving, WAL and ARQ do none. Each
   dimension holds exactly [star_dim_rows / star_hubs] rows per hub
   and keys are drawn from a range wide enough that projections never
   collide, so every insert adds the same number of rows to every view
   whatever the seed. *)

let star_views = 8
let star_dim_rows = 500
let star_hubs = 250
let star_keys = 1_000_000
let star_attrs = 100

let star ~seed ~n =
  let rng = Sim.Rng.create seed in
  let dim k = Printf.sprintf "dim%d" k and attr k = Printf.sprintf "attr%d" k in
  let hot_row () =
    Tuple.ints [ Sim.Rng.int rng star_keys; Sim.Rng.int rng star_hubs ]
  in
  let hot = spec "hot" "hot" (int_schema [ "key"; "hub" ]) (List.init 64 (fun _ -> hot_row ())) in
  let dims =
    List.init star_views (fun k ->
        spec "dims" (dim k)
          (int_schema
             ([ "hub"; attr k ]
             @ List.init 4 (fun p -> Printf.sprintf "pad%d_%d" k p)))
          (List.init star_dim_rows (fun i ->
               Tuple.ints
                 ((i mod star_hubs)
                 :: List.init 5 (fun _ -> Sim.Rng.int rng star_attrs)))))
  in
  let views =
    List.init star_views (fun k ->
        Query.View.make (Printf.sprintf "V%d" k)
          Query.Algebra.(project [ "key"; attr k ] (join (base "hot") (base (dim k)))))
  in
  let script = List.init n (fun _ -> [ Update.insert "hot" (hot_row ()) ]) in
  { (base ~seed { Workload.Scenarios.name = "star-maintain"; specs = hot :: dims; views; script })
    with System.vm_kind = System.Selfmaint_vm }

(* ---- serve-mix ----

   Read-heavy: ten reads per update over four sessions beside the writes
   on the same store. The only mix that exercises publish, cache refresh
   and read evaluation. *)

let serve_sales = 2000
let serve_products = 200
let serve_stores = 20
let regions = [| 100; 200; 300; 400 |]

(* Live-state tracker for scripts that delete or modify: every delete and
   every modify's [before] names a tuple present at that point. *)
module Live = struct
  type t = { mutable rows : Tuple.t array; mutable len : int }

  let of_list l = { rows = Array.of_list l; len = List.length l }

  let add t tup =
    if t.len = Array.length t.rows then begin
      let bigger = Array.make (max 16 (2 * t.len)) tup in
      Array.blit t.rows 0 bigger 0 t.len;
      t.rows <- bigger
    end;
    t.rows.(t.len) <- tup;
    t.len <- t.len + 1

  (* Remove and return a uniformly drawn live tuple. *)
  let take t rng =
    let i = Sim.Rng.int rng t.len in
    let tup = t.rows.(i) in
    t.len <- t.len - 1;
    t.rows.(i) <- t.rows.(t.len);
    tup
end

(* [n] draws from [block], cycling through freshly shuffled copies of it:
   exact proportions in random order, so every seed performs the same
   mix of operations. *)
let stratified rng block n =
  let rec go acc k =
    if k >= n then List.filteri (fun i _ -> i < n) (List.concat (List.rev acc))
    else go (Sim.Rng.shuffle rng block :: acc) (k + List.length block)
  in
  go [] 0

let sales_row rng ~skus ~stores =
  Tuple.ints
    [ Sim.Rng.int rng skus; Sim.Rng.int rng stores; 1 + Sim.Rng.int rng 20 ]

(* Initial tables spread rows evenly over stores and categories, so the
   seed moves values but not table or group sizes: every seed measures
   the same amount of work. *)
let initial_sales rng ~rows ~skus ~stores =
  List.init rows (fun i ->
      Tuple.ints [ Sim.Rng.int rng skus; i mod stores; 1 + Sim.Rng.int rng 20 ])

let category sku = 10 * (1 + (sku mod 10))

let serve_queries =
  let open Query.Algebra in
  List.map (fun v -> base (Query.View.name v)) Workload.Scenarios.retail_star.views
  @ [ group_by ~keys:[ "region" ] ~aggregates:[ ("total_qty", Sum "qty") ]
        (base "full_rollup");
      select (Query.Pred.ge "qty" (Value.Int 15)) (base "sales_by_store") ]

let serve ~seed ~n =
  let rng = Sim.Rng.create seed in
  let skus = ref serve_products in
  let product_row sku = Tuple.ints [ sku; category sku ] in
  let sales0 = initial_sales rng ~rows:serve_sales ~skus:serve_products ~stores:serve_stores in
  let products = List.init serve_products product_row in
  let stores =
    List.init serve_stores (fun s -> Tuple.ints [ s; regions.(s mod Array.length regions) ])
  in
  let live = Live.of_list sales0 in
  let script =
    List.map
      (function
        | `Sale ->
          let row = sales_row rng ~skus:!skus ~stores:serve_stores in
          Live.add live row;
          [ Update.insert "sales" row ]
        | `Requantify ->
          let before = Live.take live rng in
          let after =
            Tuple.of_array
              [| Tuple.get before 0; Tuple.get before 1; Value.Int (1 + Sim.Rng.int rng 20) |]
          in
          Live.add live after;
          [ Update.modify "sales" ~before ~after ]
        | `Product ->
          let sku = !skus in
          incr skus;
          [ Update.insert "product" (product_row sku) ])
      (stratified rng
         [ `Sale; `Sale; `Sale; `Sale; `Sale; `Sale; `Sale; `Requantify; `Requantify; `Product ]
         n)
  in
  let scenario =
    { Workload.Scenarios.name = "serve-mix";
      specs =
        [ spec "pos" "sales" (int_schema [ "sku"; "store"; "qty" ]) sales0;
          spec "catalog" "product" (int_schema [ "sku"; "cat" ]) products;
          spec "catalog" "store" (int_schema [ "store"; "region" ]) stores ];
      views = Workload.Scenarios.retail_star.views;
      script }
  in
  { (base ~seed scenario) with
    System.reads =
      Some
        { System.sessions =
            [ (Serve.Session.Latest, 2); (Serve.Session.Monotonic_reads, 1);
              (Serve.Session.Bounded_staleness 0.05, 1) ];
          read_arrival = System.Poisson 500.0;
          n_reads = 10 * n;
          as_of_fraction = 0.25;
          as_of_lag = 0.2;
          read_cache = true;
          cache_refresh = true;
          serve_retention = Serve.Version_manager.Keep_last 64;
          queries = serve_queries } }

(* ---- tenant-durable ----

   Many small durable transactions on a lossy network: each update
   touches 2 of 64 views with a tiny delta, so routing, message
   handling, ARQ, WAL and commit dominate. *)

let tenants = 32
let tenant_rows = 50
let tenant_values = 64

(* Exactly [n] tenant ids in Zipf(1.0) proportions (largest remainders
   round), in random order. *)
let zipf_sequence rng n =
  let exact = Array.init tenants (fun t -> 1.0 /. float_of_int (t + 1)) in
  let total = Array.fold_left ( +. ) 0.0 exact in
  let exact = Array.map (fun w -> float_of_int n *. w /. total) exact in
  let counts = Array.map truncate exact in
  let short = n - Array.fold_left ( + ) 0 counts in
  List.init tenants Fun.id
  |> List.sort (fun a b ->
         compare (exact.(b) -. float_of_int counts.(b)) (exact.(a) -. float_of_int counts.(a)))
  |> List.iteri (fun i t -> if i < short then counts.(t) <- counts.(t) + 1);
  Sim.Rng.shuffle rng (List.concat (List.init tenants (fun t -> List.init counts.(t) (fun _ -> t))))

(* [Workload.Tenants]' schema, views and initial data with a stratified
   script: single-update, single-tenant transactions whose tenants follow
   Zipf(1.0) exactly, alternating each tenant's two relations, with
   [Workload.Tenants]' insert:delete:modify = 2:1:1 mix in exact
   proportions per relation. *)
let tenant ~seed ~n =
  let w =
    Workload.Tenants.generate
      { Workload.Tenants.seed; tenants; initial_tuples = tenant_rows; n_transactions = 0;
        skew = 1.0; value_range = tenant_values }
  in
  let scenario = w.Workload.Tenants.scenario in
  let rng = Sim.Rng.split (Sim.Rng.create seed) in
  let relations =
    Array.init tenants (fun t ->
        List.concat_map
          (fun v ->
            if Workload.Tenants.tenant_of w (Query.View.name v) = t then
              Query.View.base_relations v
            else [])
          scenario.Workload.Scenarios.views
        |> List.sort_uniq compare |> Array.of_list)
  in
  let live = Hashtbl.create 64 and ops = Hashtbl.create 64 in
  List.iter
    (fun (sp : Source.Sources.spec) ->
      Hashtbl.replace live sp.Source.Sources.relation
        (Live.of_list (Relation.tuples sp.Source.Sources.init));
      Hashtbl.replace ops sp.Source.Sources.relation [])
    scenario.Workload.Scenarios.specs;
  let next_op rel =
    let op, rest =
      match Hashtbl.find ops rel with
      | op :: rest -> (op, rest)
      | [] -> (
        match Sim.Rng.shuffle rng [ `Insert; `Insert; `Delete; `Modify ] with
        | op :: rest -> (op, rest)
        | [] -> assert false)
    in
    Hashtbl.replace ops rel rest;
    op
  in
  let value_row () =
    Tuple.ints [ Sim.Rng.int rng tenant_values; Sim.Rng.int rng tenant_values ]
  in
  let turns = Array.make tenants 0 in
  let script =
    List.map
      (fun t ->
        let rels = relations.(t) in
        let rel = rels.(turns.(t) mod Array.length rels) in
        turns.(t) <- turns.(t) + 1;
        let rows = Hashtbl.find live rel in
        [ (match next_op rel with
          | `Insert ->
            let row = value_row () in
            Live.add rows row;
            Update.insert rel row
          | `Delete -> Update.delete rel (Live.take rows rng)
          | `Modify ->
            let before = Live.take rows rng in
            let after = value_row () in
            Live.add rows after;
            Update.modify rel ~before ~after) ])
      (zipf_sequence rng n)
  in
  { (base ~seed { scenario with Workload.Scenarios.name = "tenant-durable"; script }) with
    System.arrival = System.Poisson 100.0;
    durable = Some System.default_durability;
    reliability = System.Acked Sim.Reliable.default_params;
    fault_plan =
      Workload.Fault_plan.random ~drop:0.01 ~duplicate:0.005 ~delay:0.005
        ~delay_by:0.05 "*" }

(* ---- rollup-churn ----

   Aggregates under deletes: deletes under [Max] over a join force group
   recomputation, the O(|input|) [Group_by] delta. star-maintain has no
   [Group_by] and is the no-change control for work on this path. *)

let rollup_sales = 2000
let rollup_products = 200
let rollup_stores = 20

let rollup ~seed ~n =
  let rng = Sim.Rng.create seed in
  let sales0 = initial_sales rng ~rows:rollup_sales ~skus:rollup_products ~stores:rollup_stores in
  let products = List.init rollup_products (fun sku -> Tuple.ints [ sku; category sku ]) in
  let live = Live.of_list sales0 in
  let update = function
    | `Insert ->
      let row = sales_row rng ~skus:rollup_products ~stores:rollup_stores in
      Live.add live row;
      Update.insert "sales" row
    | `Delete -> Update.delete "sales" (Live.take live rng)
    | `Modify ->
      let before = Live.take live rng in
      let after = sales_row rng ~skus:rollup_products ~stores:rollup_stores in
      Live.add live after;
      Update.modify "sales" ~before ~after
  in
  (* Transactions of 1, 2 and 3 updates in equal numbers; inserts,
     deletes and modifies in equal numbers. *)
  let sizes = stratified rng [ 1; 2; 3 ] n in
  let kinds =
    ref (stratified rng [ `Insert; `Delete; `Modify ] (List.fold_left ( + ) 0 sizes))
  in
  let script =
    List.map
      (fun k ->
        List.init k (fun _ ->
            match !kinds with
            | kind :: rest ->
              kinds := rest;
              update kind
            | [] -> assert false))
      sizes
  in
  base ~seed
    { Workload.Scenarios.name = "rollup-churn";
      specs =
        [ spec "pos" "sales" (int_schema [ "sku"; "store"; "qty" ]) sales0;
          spec "catalog" "product" (int_schema [ "sku"; "cat" ]) products ];
      views = Workload.Scenarios.sales_rollup.views;
      script }

let all =
  [ { name = "star-maintain"; n = 1000; config = star };
    { name = "serve-mix"; n = 300; config = serve };
    { name = "tenant-durable"; n = 10000; config = tenant };
    { name = "rollup-churn"; n = 500; config = rollup } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The same config with nothing to do: the fixed cost of a run (sources,
   initial materialization, plan compilation) that the throughput
   metrics subtract. *)
let empty (cfg : System.config) =
  { cfg with
    System.scenario = { cfg.System.scenario with Workload.Scenarios.script = [] };
    reads =
      Option.map (fun (r : System.read_profile) -> { r with System.n_reads = 0 }) cfg.reads }
