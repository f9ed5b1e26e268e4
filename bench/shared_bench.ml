(* S: shared-subplan ablations. Two sweeps land in BENCH_shared.json
   (format documented in EXPERIMENTS.md):

   - overlap: view-overlap degree x update count x join fanout on a
     six-view workload. Degree d means the six views form 6/d families,
     each family d sigma/pi variants over its own R_f |><| S_f — so d
     views share one join subplan and a transaction fans out to d
     views. Each point runs sharing off (every view steps its own plan)
     and sharing on (Selfmaint.Plan.share makes the join a slot:
     computed once per transaction and served from the memo to the
     other d-1 views, which probe its versions like base relations).
     Two families differ in the join column's key range: "wide" keys
     give about half an S match per delta row, "high-fanout" keys about
     a hundred. Work is measured as kernel rows — tuples the join kernel
     ingested or probed (Query.Compiled.kernel_rows), with the
     identical initialization work subtracted via a zero-transaction
     run — and wall clock as the median whole-run time over
     [wall_pairs] alternating off/on runs; every point asserts the final
     warehouse states and commit trace are identical to the unshared
     run.

   - refresh: the PR 3 serve read path (fact |><| dim view, a read mix
     against the versioned result cache) with the cache's
     invalidate-on-commit policy against incremental refresh
     (Serve.Result_cache.commit pushes each commit's narrow per-view
     deltas through the cached query's delta plan, keeping entries
     valid across commits). Hit ratio and mean read latency per mode.

   [diff_rows] are the @diff-smoke rows for the sharing knob: sharing
   on must produce byte-identical commits, states, reads and verdicts on
   both runtimes and across domain counts, must cut kernel rows by >= 2x
   at overlap degree 3, and the refresh path must actually refresh. *)

open Relational
open Whips

let quick () = !Micro.quick

(* ---- the overlap workload: six views, degree-d subplan sharing ---- *)

(* Families get disjoint base pairs, so subplans are shared within a
   family and nothing is shared across families. The delta side R_f is
   small and the probed side S_f big. The join column B is drawn from
   [keys] values (default: as wide as the other columns), so a delta row
   of R_f matches about [rows / keys] rows of S_f. *)
let overlap_scenario ?keys ~degree ~rows ~txns () =
  assert (6 mod degree = 0);
  let families = 6 / degree in
  let range = 2 * rows in
  let keys = Option.value keys ~default:range in
  let rs = Parallel_bench.int_schema [ "A"; "B" ]
  and ss = Parallel_bench.int_schema [ "B"; "C" ] in
  let bag seed n ~first ~second =
    let rng = Sim.Rng.create seed in
    let rec loop i acc =
      if i = 0 then acc
      else
        loop (i - 1)
          (Bag.add
             (Tuple.ints [ Sim.Rng.int rng first; Sim.Rng.int rng second ])
             acc)
    in
    loop n Bag.empty
  in
  let specs =
    List.concat
      (List.init families (fun f ->
           let spec rel sch bag =
             { Source.Sources.source = Printf.sprintf "src%d" f;
               relation = rel;
               init = Relation.with_contents (Relation.create sch) bag }
           in
           [ spec (Printf.sprintf "R%d" f) rs
               (bag (10 + f) (max 10 (rows / 10)) ~first:range ~second:keys);
             spec (Printf.sprintf "S%d" f) ss
               (bag (50 + f) rows ~first:keys ~second:range) ]))
  in
  let views =
    List.concat
      (List.init families (fun f ->
           let joined =
             Query.Algebra.(
               join
                 (base (Printf.sprintf "R%d" f))
                 (base (Printf.sprintf "S%d" f)))
           in
           List.init degree (fun j ->
               let def =
                 if j = 0 then joined
                 else
                   Query.Algebra.select
                     (Query.Pred.lt "A" (Value.Int (range * j / degree)))
                     joined
               in
               Query.View.make (Printf.sprintf "V%d" ((f * degree) + j)) def)))
  in
  let rng = Sim.Rng.create 23 in
  let script =
    List.init txns (fun i ->
        let rel = Printf.sprintf "R%d" (i mod families) in
        let tuple () =
          Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng keys ]
        in
        [ Update.insert rel (tuple ()); Update.insert rel (tuple ()) ])
  in
  { Workload.Scenarios.name = Printf.sprintf "overlap-d%d" degree;
    specs; views; script }

let run_overlap ~shared ~domains scen =
  System.run
    { (System.default scen) with
      merge_kind = System.Sequential;
      arrival = System.Uniform 0.02;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      shared_plans = shared;
      seed = 9 }

(* Kernel rows charged to delta maintenance alone: the same scenario
   with an empty script prices initialization (store materialization,
   slot materialization) and is subtracted out. *)
let delta_rows ~shared scen =
  let scen0 = { scen with Workload.Scenarios.script = [] } in
  let r0 = Query.Compiled.kernel_rows () in
  ignore (run_overlap ~shared ~domains:1 scen0);
  let init_rows = Query.Compiled.kernel_rows () - r0 in
  let r1 = Query.Compiled.kernel_rows () in
  let res = run_overlap ~shared ~domains:1 scen in
  (res, Query.Compiled.kernel_rows () - r1 - init_rows)

type overlap_point = {
  p_family : string;
  p_keys : int;
  p_degree : int;
  p_txns : int;
  p_rows_off : int;
  p_rows_on : int;
  p_ratio : float;
  p_wall_off : float;  (* medians over [wall_pairs] runs *)
  p_wall_on : float;
  p_setup_off : float;  (* the same, for the zero-transaction run *)
  p_setup_on : float;
  p_on_faster : int;  (* pairs whose sharing-on run was faster *)
  p_hits : int;
  p_misses : int;
  p_identical : bool;
}

(* Enough alternating off/on pairs that a median is not one lucky run;
   each run starts from a compacted heap. *)
let wall_pairs = 10

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed_run ~shared scen =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run_overlap ~shared ~domains:1 scen));
  Unix.gettimeofday () -. t0

let timed_pairs scen =
  List.init wall_pairs (fun _ ->
      let off = timed_run ~shared:false scen in
      (off, timed_run ~shared:true scen))

let overlap_point ~family ~keys ~degree ~rows ~txns =
  let scen = overlap_scenario ~keys ~degree ~rows ~txns () in
  let off, p_rows_off = delta_rows ~shared:false scen in
  let on, p_rows_on = delta_rows ~shared:true scen in
  (* Set-up (store and slot materialization) is paid once per run;
     timing the zero-transaction run separates it from maintenance. *)
  let pairs = timed_pairs scen in
  let setup = timed_pairs { scen with Workload.Scenarios.script = [] } in
  let p_identical =
    Diffsmoke.signatures_equal (Diffsmoke.signature off)
      (Diffsmoke.signature on)
  in
  if not p_identical then
    failwith
      (Printf.sprintf "sharing changed the trace at degree %d" degree);
  let m = on.System.metrics in
  { p_family = family; p_keys = keys; p_degree = degree; p_txns = txns;
    p_rows_off; p_rows_on;
    p_ratio =
      (if p_rows_on = 0 then Float.infinity
       else float_of_int p_rows_off /. float_of_int p_rows_on);
    p_wall_off = median (List.map fst pairs);
    p_wall_on = median (List.map snd pairs);
    p_setup_off = median (List.map fst setup);
    p_setup_on = median (List.map snd setup);
    p_on_faster = List.length (List.filter (fun (off, on) -> on < off) pairs);
    p_hits = Atomic.get m.Metrics.shared_hits;
    p_misses = Atomic.get m.Metrics.shared_misses;
    p_identical }

(* "wide": join keys as wide as the other columns, about half an S
   match per delta row; "high-fanout": a hundred matches per delta row, where
   the shared join is the expensive part of every referrer's delta. *)
let overlap_sweep () =
  let rows = if quick () then 1_000 else 5_000 in
  let txn_counts = if quick () then [ 6 ] else [ 12; 36 ] in
  List.concat_map
    (fun (family, keys) ->
      List.concat_map
        (fun txns ->
          List.map
            (fun degree -> overlap_point ~family ~keys ~degree ~rows ~txns)
            [ 1; 2; 3; 6 ])
        txn_counts)
    [ ("wide", 2 * rows); ("high-fanout", rows / 100) ]

(* ---- refresh vs invalidate on the serve read path ---- *)

(* One wide fact |><| dim view; every commit touches it with a narrow
   delta, so invalidate-on-commit throws the whole cached result away
   while incremental refresh folds a couple of rows in and keeps the
   entry valid at the new version. *)
let refresh_scenario ~rows ~txns =
  let range = 2 * rows in
  let fs = Parallel_bench.int_schema [ "A"; "B" ]
  and ds = Parallel_bench.int_schema [ "B"; "C" ] in
  let views =
    [ Query.View.make "VJ" Query.Algebra.(join (base "F") (base "D")) ]
  in
  let rng = Sim.Rng.create 29 in
  let script =
    List.init txns (fun _ ->
        [ Update.insert "F"
            (Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng 64 ]) ])
  in
  { Workload.Scenarios.name = "refresh-fact-dim";
    specs =
      [ { Source.Sources.source = "src1";
          relation = "F";
          init =
            Relation.with_contents (Relation.create fs)
              (let rng = Sim.Rng.create 3 in
               let rec loop i acc =
                 if i = 0 then acc
                 else
                   loop (i - 1)
                     (Bag.add
                        (Tuple.ints
                           [ Sim.Rng.int rng range; Sim.Rng.int rng 64 ])
                        acc)
               in
               loop rows Bag.empty) };
        { Source.Sources.source = "src2";
          relation = "D";
          init =
            Relation.with_contents (Relation.create ds)
              (Bag.of_list
                 (List.init 64 (fun i -> Tuple.ints [ i; 1000 + i ]))) } ];
    views;
    script }

type refresh_point = {
  r_refresh : bool;
  r_reads : int;
  r_hit_ratio : float;
  r_latency_ms : float;
  r_refreshed : int;
  r_fallbacks : int;
  r_wall : float;
}

let refresh_point ~refresh ~n_reads scen =
  (* Latest-guarantee sessions only: refresh keeps the one cached
     entry valid at the head, which is where Latest reads land.
     Sessions pinning old versions (bounded staleness, as-of) are
     indifferent — advancing the entry past their version wins and
     loses the same reads — so they would only blur the comparison. *)
  let reads =
    { System.default_reads with
      sessions = [ (Serve.Session.Latest, 6) ];
      n_reads;
      read_arrival = System.Poisson 400.0;
      as_of_fraction = 0.0;
      cache_refresh = refresh;
      queries = [ Query.Algebra.base "VJ" ] }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    System.run
      { (System.default scen) with
        merge_kind = System.Auto;
        arrival = System.Uniform 0.02;
        reads = Some reads;
        seed = 9 }
  in
  let r_wall = Unix.gettimeofday () -. t0 in
  let m = r.System.metrics in
  { r_refresh = refresh;
    r_reads = Atomic.get m.Metrics.reads;
    r_hit_ratio = Metrics.cache_hit_ratio m;
    r_latency_ms = 1000.0 *. Sim.Stats.Summary.mean m.Metrics.read_latency;
    r_refreshed = Atomic.get m.Metrics.cache_refreshes;
    r_fallbacks = Atomic.get m.Metrics.cache_refresh_fallbacks;
    r_wall }

let refresh_sweep () =
  let rows = if quick () then 1_000 else 10_000 in
  let txns = if quick () then 8 else 24 in
  let n_reads = if quick () then 60 else 240 in
  let scen = refresh_scenario ~rows ~txns in
  [ refresh_point ~refresh:false ~n_reads scen;
    refresh_point ~refresh:true ~n_reads scen ]

(* ---- reporting ---- *)

let headline points =
  (* kernel-rows reduction at overlap degree 3, largest update count,
     wide keys. *)
  List.fold_left
    (fun acc p ->
      if p.p_degree = 3 && p.p_family = "wide" then p.p_ratio else acc)
    1.0 points

let write_json ~path ~overlap ~refresh =
  let oc = open_out path in
  let overlap_json =
    List.map
      (fun p ->
        Printf.sprintf
          "    { \"family\": %S, \"key_range\": %d, \"degree\": %d, \
           \"transactions\": %d, \"kernel_rows_off\": %d, \
           \"kernel_rows_on\": %d, \"rows_reduction\": %.2f, \
           \"wall_off_s\": %.4f, \"wall_on_s\": %.4f, \"setup_off_s\": \
           %.4f, \"setup_on_s\": %.4f, \"wall_pairs\": %d, \
           \"on_faster_pairs\": %d, \"shared_hits\": %d, \
           \"shared_misses\": %d, \"identical_trace\": %b }"
          p.p_family p.p_keys p.p_degree p.p_txns p.p_rows_off p.p_rows_on
          p.p_ratio p.p_wall_off p.p_wall_on p.p_setup_off p.p_setup_on
          wall_pairs p.p_on_faster p.p_hits p.p_misses p.p_identical)
      overlap
  in
  let refresh_json =
    List.map
      (fun r ->
        Printf.sprintf
          "    { \"refresh\": %b, \"reads\": %d, \"cache_hit_ratio\": %.3f, \
           \"mean_read_latency_ms\": %.3f, \"refreshed\": %d, \
           \"refresh_fallbacks\": %d, \"wall_s\": %.3f }"
          r.r_refresh r.r_reads r.r_hit_ratio r.r_latency_ms r.r_refreshed
          r.r_fallbacks r.r_wall)
      refresh
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe shared\",\n\
    \  \"quick\": %b,\n\
    \  \"note\": \"kernel_rows counts tuples the join kernel ingested or \
     probed during delta maintenance (initialization subtracted); \
     wall_off_s and wall_on_s are median whole-run seconds over \
     wall_pairs alternating off/on runs, on_faster_pairs how many pairs \
     sharing won, setup_off_s and setup_on_s the same medians for the \
     zero-transaction run (store and slot materialization), so wall - \
     setup is maintenance; identical_trace asserts sharing never changed commits, \
     completion instants or view contents. The refresh sweep compares \
     the result cache's invalidate-on-commit policy against incremental \
     refresh on the fact|><|dim read path.\",\n\
    \  \"overlap_sweep\": [\n%s\n  ],\n\
    \  \"rows_reduction_at_degree_3\": %.2f,\n\
    \  \"refresh_sweep\": [\n%s\n  ]\n\
     }\n"
    (quick ())
    (String.concat ",\n" overlap_json)
    (headline overlap)
    (String.concat ",\n" refresh_json);
  close_out oc

let run () =
  Tables.section "S: shared subplans (overlap x updates x fanout, refresh)";
  let overlap = overlap_sweep () in
  Tables.print
    ~title:"subplan sharing: kernel rows and median wall per run (six views)"
    ~header:
      [ "family"; "degree"; "txns"; "rows off"; "rows on"; "reduction";
        "wall off"; "wall on"; "on won"; "setup off"; "setup on"; "memo" ]
    (List.map
       (fun p ->
         [ p.p_family; string_of_int p.p_degree; string_of_int p.p_txns;
           string_of_int p.p_rows_off; string_of_int p.p_rows_on;
           Printf.sprintf "%.2fx" p.p_ratio;
           Printf.sprintf "%.4f s" p.p_wall_off;
           Printf.sprintf "%.4f s" p.p_wall_on;
           Printf.sprintf "%d/%d" p.p_on_faster wall_pairs;
           Printf.sprintf "%.4f s" p.p_setup_off;
           Printf.sprintf "%.4f s" p.p_setup_on;
           Printf.sprintf "%d/%d" p.p_hits (p.p_hits + p.p_misses) ])
       overlap);
  let refresh = refresh_sweep () in
  Tables.print
    ~title:"result cache: invalidate-on-commit vs incremental refresh"
    ~header:
      [ "policy"; "reads"; "hit ratio"; "read latency"; "refreshed";
        "fallbacks"; "wall" ]
    (List.map
       (fun r ->
         [ (if r.r_refresh then "refresh" else "invalidate");
           string_of_int r.r_reads;
           Printf.sprintf "%.3f" r.r_hit_ratio;
           Printf.sprintf "%.3f ms" r.r_latency_ms;
           string_of_int r.r_refreshed; string_of_int r.r_fallbacks;
           Printf.sprintf "%.2f s" r.r_wall ])
       refresh);
  write_json ~path:"BENCH_shared.json" ~overlap ~refresh;
  Printf.printf "wrote BENCH_shared.json\n%!"

(* ---- @diff-smoke rows: sharing is invisible and >= 2x cheaper ---- *)

let diff_rows =
  let scen = overlap_scenario ~degree:3 ~rows:600 ~txns:6 () in
  let shared cfg = { cfg with System.shared_plans = true } in
  let sequential cfg = { cfg with System.merge_kind = System.Sequential } in
  let kernel_rows scen _ =
    let _, rows_off = delta_rows ~shared:false scen in
    let _, rows_on = delta_rows ~shared:true scen in
    [ ( Printf.sprintf "kernel rows %d -> %d (>= 2x)" rows_off rows_on,
        rows_on * 2 <= rows_off ) ]
  in
  (* Pipelined runtime: complete managers share one slot table, and the
     result cache's refresh path advances entries in place. *)
  let pipelined _ runs =
    let refresh =
      refresh_point ~refresh:true ~n_reads:40
        (refresh_scenario ~rows:400 ~txns:6)
    in
    [ ( "slots were used",
        List.for_all
          (fun r -> Atomic.get r.System.metrics.Metrics.shared_hits > 0)
          runs );
      ("cache refresh: entries advanced", refresh.r_refreshed > 0) ]
  in
  [ { Diffsmoke.name = "shared: sequential";
      scenarios = [ scen ];
      domains = [ 1; 2; 4 ];
      left = sequential;
      right = Some (fun cfg -> shared (sequential cfg));
      extra = kernel_rows };
    { name = "shared: pipelined";
      scenarios = [ scen ];
      domains = [ 1; 2; 4 ];
      left = Fun.id;
      right = Some shared;
      extra = pipelined } ]
