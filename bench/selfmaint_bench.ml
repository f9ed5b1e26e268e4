(* Self-maintenance study: warehouse-local auxiliary data vs source
   compensation round trips, and its @diff-smoke row.

   [run] sweeps update rate over a star workload whose every update
   touches every view. The Strobe manager pays a source query round
   trip per update; the self-maintaining manager answers from its
   derived auxiliary projections — zero round trips — so freshness
   holds until the merge, not the source link, becomes the bound.
   Writes BENCH_selfmaint.json; headlines are
   [freshness_speedup_at_top_rate] (Strobe mean staleness over
   selfmaint mean staleness at the highest benched rate) and
   [roundtrips_per_update] (source queries per source transaction on
   the selfmaint runs, pinned at 0).

   [diff_rows] is the @diff-smoke row: every pinned paper scenario (plus
   one generated workload) runs under Selfmaint_vm and Complete_vm at 1
   and 4 domains, and the traces must be byte-identical, with zero
   source queries on the selfmaint side. *)

open Relational
open Whips

let quick () = !Micro.quick

(* ---- the star workload ----

   hot(key,hub) joins each wide dimension dim_k(hub, attr_k, pad1..4);
   V_k projects [key; attr_k] out of the join. Updates hit only [hot],
   so every transaction is relevant to every view, and the live set of
   each dimension is {hub, attr_k} — 2 of its 6 attributes — so the
   auxiliary store is a third of the replica store. *)

let star_scenario ~n_views ~txns ~seed =
  let rng = Sim.Rng.create seed in
  let schema names =
    Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)
  in
  let dim k = Printf.sprintf "dim%d" k in
  let attr k = Printf.sprintf "attr%d" k in
  let dim_row () =
    Tuple.ints (List.init 6 (fun _ -> Sim.Rng.int rng 5))
  in
  let specs =
    { Source.Sources.source = "hot";
      relation = "hot";
      init =
        Relation.of_tuples
          (schema [ "key"; "hub" ])
          (List.init 8 (fun _ ->
               Tuple.ints [ Sim.Rng.int rng 5; Sim.Rng.int rng 5 ])) }
    :: List.init n_views (fun k ->
           { Source.Sources.source = "dims";
             relation = dim k;
             init =
               Relation.of_tuples
                 (schema
                    ([ "hub"; attr k ]
                    @ List.init 4 (fun p -> Printf.sprintf "pad%d_%d" k p)))
                 (List.init 40 (fun _ -> dim_row ())) })
  in
  let views =
    List.init n_views (fun k ->
        Query.View.make
          (Printf.sprintf "V%d" k)
          Query.Algebra.(
            project [ "key"; attr k ] (join (base "hot") (base (dim k)))))
  in
  let script =
    List.init txns (fun _ ->
        [ Update.insert "hot"
            (Tuple.ints [ Sim.Rng.int rng 5; Sim.Rng.int rng 5 ]) ])
  in
  { Workload.Scenarios.name = "selfmaint-star"; specs; views; script }

let mean_staleness (r : System.result) =
  Sim.Stats.Summary.mean r.metrics.Metrics.staleness

let p95_staleness (r : System.result) =
  Sim.Stats.Summary.percentile r.metrics.Metrics.staleness 95.0

type cell = {
  rate : float;
  strobe_mean : float;
  strobe_p95 : float;
  strobe_rtpu : float;  (** source round trips per update *)
  strobe_drain : float;
  self_mean : float;
  self_p95 : float;
  self_rtpu : float;
  self_drain : float;
}

let run () =
  Tables.section
    "selfmaint: auxiliary projections vs source round trips (update-rate \
     sweep)";
  let txns = if quick () then 60 else 150 in
  let scen = star_scenario ~n_views:4 ~txns ~seed:17 in
  (* Top rate 80/s: the managers' own 10ms compute serializes past
     ~100 updates/s on BOTH systems, which would mask the source-link
     comparison; the cliff sweep below documents the saturated regime. *)
  let rates =
    if quick () then [ 10.0; 40.0; 80.0 ]
    else [ 5.0; 10.0; 20.0; 40.0; 80.0 ]
  in
  let n_txns = List.length scen.Workload.Scenarios.script in
  (* The regime self-maintenance targets: sources are remote operational
     systems, so a compensation query is a 100ms WAN round trip, while
     warehouse-local work stays at the default costs. *)
  let sweep vm rate =
    let r =
      System.run
        { (System.default scen) with
          vm_kind = vm;
          arrival = System.Poisson rate;
          latencies = { System.default_latencies with query_roundtrip = 0.1 };
          seed = 17 }
    in
    let queries = Atomic.get r.metrics.Metrics.source_queries in
    (r, float_of_int queries /. float_of_int n_txns)
  in
  let cells =
    List.map
      (fun rate ->
        let strobe, strobe_rtpu = sweep System.Strobe_vm rate in
        let self, self_rtpu = sweep System.Selfmaint_vm rate in
        { rate;
          strobe_mean = mean_staleness strobe;
          strobe_p95 = p95_staleness strobe;
          strobe_rtpu;
          strobe_drain = strobe.metrics.Metrics.completed_at;
          self_mean = mean_staleness self;
          self_p95 = p95_staleness self;
          self_rtpu;
          self_drain = self.metrics.Metrics.completed_at })
      rates
  in
  Tables.print
    ~title:
      "mean / p95 staleness (ms) and source round trips per update; \
       source query round trip 100ms"
    ~header:
      [ "rate/s"; "strobe mean"; "strobe p95"; "strobe rt/upd";
        "selfmaint mean"; "selfmaint p95"; "selfmaint rt/upd" ]
    (List.map
       (fun c ->
         [ string_of_int (int_of_float c.rate);
           Tables.ms c.strobe_mean; Tables.ms c.strobe_p95;
           Tables.f1 c.strobe_rtpu; Tables.ms c.self_mean;
           Tables.ms c.self_p95; Tables.f1 c.self_rtpu ])
       cells);
  (* Where does the self-maintaining pipeline bound out? With the source
     link off the path, the merge process is the next single-threaded
     server in line: at 2ms per message and every update fanning out to
     all views, staleness holds flat until the service rate is exceeded,
     then cliffs. *)
  let cliff_rates =
    if quick () then [ 40.0; 160.0; 640.0 ]
    else [ 20.0; 40.0; 80.0; 160.0; 320.0; 640.0 ]
  in
  let cliff =
    List.map
      (fun rate ->
        let r =
          System.run
            { (System.default scen) with
              vm_kind = System.Selfmaint_vm;
              arrival = System.Poisson rate;
              latencies = { System.default_latencies with merge = 0.002 };
              seed = 17 }
        in
        (rate, mean_staleness r, p95_staleness r,
         Sim.Stats.Summary.max r.metrics.Metrics.merge_held))
      cliff_rates
  in
  Tables.print
    ~title:"selfmaint merge-bound cliff: merge cost 2ms, no source path"
    ~header:[ "rate/s"; "mean staleness"; "p95"; "held ALs (max)" ]
    (List.map
       (fun (rate, mean, p95, held) ->
         [ string_of_int (int_of_float rate); Tables.ms mean; Tables.ms p95;
           Tables.f1 held ])
       cliff);
  (* Auxiliary storage vs the full-replica alternative, measured on one
     selfmaint run's metrics. *)
  let storage_run =
    System.run
      { (System.default scen) with
        vm_kind = System.Selfmaint_vm;
        arrival = System.All_at_once;
        seed = 17 }
  in
  let m = storage_run.metrics in
  let aux_cells = Atomic.get m.Metrics.aux_cells
  and saved = Atomic.get m.Metrics.aux_saved_cells in
  let saved_pct =
    100.0 *. float_of_int saved /. float_of_int (max 1 (aux_cells + saved))
  in
  Printf.printf
    "auxiliary storage: %d rows, %d cells (full replicas would hold %d \
     cells; %.0f%% saved)\n"
    (Atomic.get m.Metrics.aux_rows)
    aux_cells (aux_cells + saved) saved_pct;
  let top = List.nth cells (List.length cells - 1) in
  let speedup = top.strobe_mean /. top.self_mean in
  Printf.printf
    "at %g updates/s: strobe %s mean staleness (%.1f round trips/update), \
     selfmaint %s (%.0f round trips/update) — %.1fx fresher\n"
    top.rate (Tables.ms top.strobe_mean) top.strobe_rtpu
    (Tables.ms top.self_mean) top.self_rtpu speedup;
  Printf.printf
    "expected shape: strobe staleness carries the source round trip at \
     every rate; selfmaint\nanswers locally and stays near the compute \
     floor. With the source link off the path, the\nmerge is the next \
     bound — the cliff sweep shows staleness holding flat until the \
     merge\nservice rate is exceeded, then blowing up.\n";
  let oc = open_out "BENCH_selfmaint.json" in
  let cell_json c =
    Printf.sprintf
      "    { \"rate\": %g, \"strobe_mean_staleness_s\": %.6f, \
       \"strobe_p95_staleness_s\": %.6f, \"strobe_roundtrips_per_update\": \
       %.3f, \"strobe_drain_s\": %.4f, \"selfmaint_mean_staleness_s\": \
       %.6f, \"selfmaint_p95_staleness_s\": %.6f, \
       \"selfmaint_roundtrips_per_update\": %.3f, \"selfmaint_drain_s\": \
       %.4f }"
      c.rate c.strobe_mean c.strobe_p95 c.strobe_rtpu c.strobe_drain
      c.self_mean c.self_p95 c.self_rtpu c.self_drain
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe selfmaint\",\n\
    \  \"quick\": %b,\n\
    \  \"note\": \"self-maintaining view managers: derived auxiliary \
     projections answer every update locally; Strobe pays a source query \
     round trip per update\",\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"merge_cliff\": [\n%s\n  ],\n\
    \  \"freshness_speedup_at_top_rate\": %.4f,\n\
    \  \"roundtrips_per_update\": %.4f,\n\
    \  \"aux_rows\": %d,\n\
    \  \"aux_cells\": %d,\n\
    \  \"aux_saved_cells_pct\": %.1f\n\
     }\n"
    (quick ())
    (String.concat ",\n" (List.map cell_json cells))
    (String.concat ",\n"
       (List.map
          (fun (rate, mean, p95, held) ->
            Printf.sprintf
              "    { \"rate\": %g, \"mean_staleness_s\": %.6f, \
               \"p95_staleness_s\": %.6f, \"max_held_als\": %g }"
              rate mean p95 held)
          cliff))
    speedup top.self_rtpu
    (Atomic.get m.Metrics.aux_rows)
    aux_cells saved_pct;
  close_out oc;
  Printf.printf "wrote BENCH_selfmaint.json\n%!"

(* ---- @diff-smoke row ---- *)

let diff_rows =
  let generated =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 41;
        n_relations = 4;
        n_views = 3;
        n_transactions = 12;
        initial_tuples = 6 }
  in
  let reads cfg = { cfg with System.reads = Some System.default_reads } in
  let no_source_queries _ runs =
    let queries =
      List.fold_left
        (fun acc r -> acc + Atomic.get r.System.metrics.Metrics.source_queries)
        0 runs
    in
    [ (Printf.sprintf "%d source queries (want 0)" queries, queries = 0) ]
  in
  [ { Diffsmoke.name = "selfmaint == complete";
      scenarios = Workload.Scenarios.all @ [ generated ];
      domains = [ 1; 4 ];
      left = reads;
      right =
        Some (fun cfg -> { (reads cfg) with vm_kind = System.Selfmaint_vm });
      extra = no_source_queries } ]
