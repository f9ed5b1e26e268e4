(* Merge fast path: fused run release vs the coalesced default, and its
   @diff-smoke row.

   [run] re-runs the merge-bound cliff (the selfmaint star workload,
   seed 17, 2ms merge cost) per merge_batch policy. The bench pins the
   merge as the binding server — view-manager compute is dropped to 1ms
   so the 5 merge messages per update (1 REL + 4 ALs) saturate first,
   where the seed sweep had the managers' own 10ms compute co-saturating
   next to the merge. [Coalesced] merging, which charges one merge
   service sample per message and commits every WT, then cliffs near
   100 updates/s; the fused fast path serves the whole queued backlog
   per service event and releases each ready run as one batched
   warehouse transaction, so saturation moves to the next server in
   line. Writes BENCH_merge.json; headline [merge_saturation_speedup] is
   the ratio of the highest rate each policy sustains below the
   staleness threshold, and must be >= 2.

   [diff_rows] is the @diff-smoke row: every pinned paper scenario (plus
   one generated workload) under the [Coalesced] default must be
   trace-identical at 1 and 4 domains. The [Fused] policy is exempt from
   trace identity by design (it is the behavioral knob); every fused run
   must instead pass {!Consistency.Checker.certify_fused} and stay
   strongly consistent. *)

open Whips

let quick () = !Micro.quick

(* Staleness above this means the merge backlog, not the pipeline floor,
   dominates: the flat region of the seed sweep sits near 0.04s and the
   first saturated point at 0.38s, so 0.1s cleanly separates them. *)
let saturation_threshold = 0.1

let mean_staleness (r : System.result) =
  Sim.Stats.Summary.mean r.metrics.Metrics.staleness

let p95_staleness (r : System.result) =
  Sim.Stats.Summary.percentile r.metrics.Metrics.staleness 95.0

let cliff_latencies =
  { System.default_latencies with merge = 0.002; compute = 0.001 }

let cliff_run scen ~batch ~rate =
  System.run
    { (System.default scen) with
      vm_kind = System.Selfmaint_vm;
      merge_batch = batch;
      arrival = System.Poisson rate;
      latencies = cliff_latencies;
      seed = 17 }

(* Highest swept rate the policy sustains below the threshold before its
   first saturated point (rates ascend; 0.0 when even the lowest rate is
   saturated). *)
let saturation_rate cells =
  List.fold_left
    (fun acc (rate, mean) ->
      match acc with
      | `Sat r -> `Sat r
      | `Ok _ when mean > saturation_threshold -> `Sat acc
      | `Ok _ -> `Ok rate)
    (`Ok 0.0) cells
  |> function
  | `Ok r | `Sat (`Ok r) -> r
  | `Sat (`Sat _) -> 0.0

type cell = {
  rate : float;
  coalesced_mean : float;
  coalesced_p95 : float;
  fused_mean : float;
  fused_p95 : float;
  fused_batch_mean : float;
  fused_batch_max : float;
  fused_commits : int;
}

let run () =
  Tables.section
    "merge fast path: coalesced vs fused run release (update-rate sweep)";
  let txns = if quick () then 60 else 150 in
  let scen = Selfmaint_bench.star_scenario ~n_views:4 ~txns ~seed:17 in
  let rates =
    if quick () then [ 40.0; 160.0; 640.0 ]
    else [ 20.0; 40.0; 80.0; 160.0; 320.0; 640.0; 1280.0 ]
  in
  let runs =
    List.map
      (fun rate ->
        let coalesced = cliff_run scen ~batch:System.Coalesced ~rate in
        let fused = cliff_run scen ~batch:System.Fused ~rate in
        ( coalesced,
          { rate;
            coalesced_mean = mean_staleness coalesced;
            coalesced_p95 = p95_staleness coalesced;
            fused_mean = mean_staleness fused;
            fused_p95 = p95_staleness fused;
            fused_batch_mean =
              Sim.Stats.Summary.mean fused.metrics.Metrics.merge_batch_size;
            fused_batch_max =
              Sim.Stats.Summary.max fused.metrics.Metrics.merge_batch_size;
            fused_commits = Atomic.get fused.metrics.Metrics.commits } ))
      rates
  in
  let cells = List.map snd runs in
  Tables.print
    ~title:
      "mean / p95 staleness; merge 2ms per message, fused serves the \
       backlog per service event"
    ~header:
      [ "rate/s"; "coalesced mean"; "coalesced p95"; "fused mean";
        "fused p95"; "batch mean"; "batch max"; "fused commits" ]
    (List.map
       (fun c ->
         [ string_of_int (int_of_float c.rate);
           Tables.ms c.coalesced_mean; Tables.ms c.coalesced_p95;
           Tables.ms c.fused_mean; Tables.ms c.fused_p95;
           Tables.f1 c.fused_batch_mean; Tables.f1 c.fused_batch_max;
           string_of_int c.fused_commits ])
       cells);
  (* The coalescing counters of the coalesced run at the middle rate. *)
  let probe_rate, probe =
    let coalesced, c = List.nth runs (List.length runs / 2) in
    (c.rate, coalesced.metrics)
  in
  Printf.printf
    "coalesced run at %g/s: %d->%d actions (cancel ratio %.2f, %d \
     fallbacks)\n"
    probe_rate
    (Atomic.get probe.Metrics.coalesced_in)
    (Atomic.get probe.Metrics.coalesced_out)
    (Metrics.coalesce_cancel_ratio probe)
    (Atomic.get probe.Metrics.coalesce_fallbacks);
  let coalesced_sat =
    saturation_rate (List.map (fun c -> (c.rate, c.coalesced_mean)) cells)
  and fused_sat =
    saturation_rate (List.map (fun c -> (c.rate, c.fused_mean)) cells)
  in
  let speedup =
    if coalesced_sat > 0.0 then fused_sat /. coalesced_sat else 0.0
  in
  Printf.printf
    "saturation (mean staleness <= %gs): coalesced %g/s, fused %g/s — \
     %.1fx further\n"
    saturation_threshold coalesced_sat fused_sat speedup;
  Printf.printf
    "expected shape: coalesced merging cliffs once 5 messages x 2ms per \
     update exceed the\nservice rate (~100/s); the fused path charges one \
     service sample per backlog and commits\neach ready run as one BWT, so \
     staleness stays near the pipeline floor until the next\nserver binds. \
     Batch sizes grow with offered load — the fast path is self-\n\
     scheduling, not a tuned constant.\n";
  let oc = open_out "BENCH_merge.json" in
  let cell_json c =
    Printf.sprintf
      "    { \"rate\": %g, \"coalesced_mean_staleness_s\": %.6f, \
       \"coalesced_p95_staleness_s\": %.6f, \"fused_mean_staleness_s\": \
       %.6f, \"fused_p95_staleness_s\": %.6f, \"fused_batch_mean\": %.2f, \
       \"fused_batch_max\": %g, \"fused_commits\": %d }"
      c.rate c.coalesced_mean c.coalesced_p95 c.fused_mean c.fused_p95
      c.fused_batch_mean c.fused_batch_max c.fused_commits
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe merge\",\n\
    \  \"quick\": %b,\n\
    \  \"note\": \"merge fast path: coalesced merging vs fused run \
     release on the star cliff (merge 2ms, compute 1ms, seed 17); \
     saturation = highest swept rate with mean staleness <= %gs\",\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"saturation_rate_coalesced\": %g,\n\
    \  \"saturation_rate_fused\": %g,\n\
    \  \"merge_saturation_speedup\": %.4f,\n\
    \  \"coalesce_cancel_ratio\": %.4f,\n\
    \  \"coalesce_fallbacks\": %d\n\
     }\n"
    (quick ()) saturation_threshold
    (String.concat ",\n" (List.map cell_json cells))
    coalesced_sat fused_sat speedup
    (Metrics.coalesce_cancel_ratio probe)
    (Atomic.get probe.Metrics.coalesce_fallbacks);
  close_out oc;
  Printf.printf "wrote BENCH_merge.json\n%!"

(* ---- @diff-smoke row ---- *)

let diff_rows =
  let generated =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 47;
        n_relations = 4;
        n_views = 3;
        n_transactions = 12;
        initial_tuples = 6 }
  in
  (* The fused policy is the behavioral knob: no trace identity, but the
     recorded batches must re-check exactly and the run must stay
     strongly consistent (the paper's batching level). Reads stay off so
     the verdict sees Keep_all history alone. *)
  let fused scen _ =
    let r =
      System.run
        { (Diffsmoke.base ~domains:1 scen) with merge_batch = System.Fused }
    in
    let cert = System.fused_certificate r in
    let v = System.verdict r in
    [ ( Printf.sprintf "fused certified (%s, %s)"
          cert.Consistency.Checker.fc_detail
          (Consistency.Checker.level_name (Consistency.Checker.level v)),
        Consistency.Checker.certified_fused cert
        && Consistency.Checker.at_least Consistency.Checker.Strong v ) ]
  in
  [ { Diffsmoke.name = "merge: coalesced";
      scenarios = Workload.Scenarios.all @ [ generated ];
      domains = [ 1; 4 ];
      left = (fun cfg -> { cfg with System.reads = Some System.default_reads });
      right = None;
      extra = fused } ]
