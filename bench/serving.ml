(* S: snapshot-serving experiments. How does the serving layer behave as
   the read:write ratio grows, what does the versioned result cache buy,
   and how do the session guarantees trade staleness against cache reuse
   under SPA and PA? Results land in BENCH_serve.json (format documented
   in EXPERIMENTS.md).

   [servesmoke] is the fast deterministic variant wired to the
   `@serve-smoke` dune alias: a small read/write mix where every served
   read is replayed through the naive evaluator over the exact snapshot
   it was served from, cache off, cache on and cache on without commit
   refresh must be observably identical,
   every served snapshot must pass the consistency checker, and monotonic
   sessions must never travel backwards. Exits nonzero on any mismatch. *)

open Whips

let scenario ~seed =
  Workload.Generator.generate
    { Workload.Generator.default with
      seed;
      n_relations = 4;
      n_views = 3;
      n_transactions = 30;
      initial_tuples = 6 }

let update_rate = 60.0

let serving (r : System.result) =
  match r.System.serving with
  | Some s -> s
  | None -> failwith "serving not attached"

(* One run at [ratio] reads per source write. [pin_hit_latency] gives
   cache hits the same service-time distribution as misses — the smoke
   pass needs cache-on and cache-off runs to serve at identical instants
   (and thus versions) for its value-transparency check; the sweep keeps
   the realistic cheap-hit model. *)
let run_point ?(merge = System.Auto) ?sessions ?(seed = 7)
    ?(pin_hit_latency = false) ?(refresh = true) ~ratio ~cache scen =
  let reads =
    { System.default_reads with
      read_arrival = System.Poisson (ratio *. update_rate);
      n_reads =
        max 10 (int_of_float (ratio *. float_of_int (List.length scen.Workload.Scenarios.script)));
      read_cache = cache;
      cache_refresh = refresh;
      sessions =
        (match sessions with
        | Some s -> s
        | None -> System.default_reads.System.sessions) }
  in
  let latencies =
    if pin_hit_latency then
      { System.default_latencies with
        read_hit = System.default_latencies.System.read }
    else System.default_latencies
  in
  System.run
    { (System.default scen) with
      merge_kind = merge;
      arrival = System.Poisson update_rate;
      latencies;
      reads = Some reads;
      seed }

let hit_ratio (r : System.result) = Metrics.cache_hit_ratio r.metrics

let sweep_row ~ratio ~cache (r : System.result) =
  let m = r.System.metrics in
  [ Tables.f1 ratio;
    (if cache then "on" else "off");
    string_of_int (Atomic.get m.Metrics.reads);
    Tables.ms (Sim.Stats.Summary.mean m.Metrics.read_latency);
    Tables.ms (Sim.Stats.Summary.mean m.Metrics.served_staleness);
    Tables.f3 (hit_ratio r);
    string_of_int (Atomic.get m.Metrics.reads_clamped);
    Tables.f1 (Sim.Stats.Summary.mean m.Metrics.versions_retained);
    Tables.f1 (Sim.Stats.Summary.max m.Metrics.versions_pinned) ]

let sweep_json ~ratio ~cache (r : System.result) =
  let m = r.System.metrics in
  Printf.sprintf
    "    { \"read_write_ratio\": %.1f, \"cache\": %b, \"reads\": %d, \
     \"mean_read_latency_ms\": %.3f, \"mean_served_staleness_ms\": %.3f, \
     \"cache_hit_ratio\": %.3f, \"reads_clamped\": %d, \
     \"mean_versions_retained\": %.2f, \"max_versions_pinned\": %.1f }"
    ratio cache (Atomic.get m.Metrics.reads)
    (1000.0 *. Sim.Stats.Summary.mean m.Metrics.read_latency)
    (1000.0 *. Sim.Stats.Summary.mean m.Metrics.served_staleness)
    (hit_ratio r) (Atomic.get m.Metrics.reads_clamped)
    (Sim.Stats.Summary.mean m.Metrics.versions_retained)
    (Sim.Stats.Summary.max m.Metrics.versions_pinned)

(* ---- served-snapshot consistency, shared with the smoke pass ---- *)

(* Served snapshots sorted by version and deduplicated are a subsequence
   of the warehouse commit chain; prefixed with ws_0 and capped with the
   final state (the checker requires histories to end at ss_f; reads may
   have stopped before the last commits) they must be strongly consistent
   whenever the merge kept MVC. *)
let served_consistent (r : System.result) =
  let sorted =
    List.sort_uniq
      (fun a b -> compare a.System.read_version b.System.read_version)
      (serving r).System.reads_served
  in
  let served =
    List.filter_map
      (fun rec_ ->
        if rec_.System.read_version = 0 then None
        else Some rec_.System.read_state)
      sorted
  in
  let max_version =
    List.fold_left (fun acc rec_ -> max acc rec_.System.read_version) 0 sorted
  in
  let served =
    if max_version < Warehouse.Store.commit_count r.System.store then
      served @ [ Warehouse.Store.snapshot r.System.store ]
    else served
  in
  let v =
    Consistency.Checker.check
      ~views:r.System.config.System.scenario.Workload.Scenarios.views
      ~transactions:r.System.transactions
      ~source_states:(Source.Sources.states r.System.sources)
      ~warehouse_states:(Warehouse.Store.initial r.System.store :: served)
  in
  Consistency.Checker.at_least Consistency.Checker.Strong v

(* ---- merge x guarantee matrix ---- *)

let guarantees =
  [ Serve.Session.Latest; Serve.Session.Monotonic_reads;
    Serve.Session.Bounded_staleness 0.05 ]

let matrix_cell ~merge ~merge_name g scen =
  let r =
    run_point ~merge ~sessions:[ (g, 4) ] ~seed:17 ~ratio:4.0 ~cache:true scen
  in
  let m = r.System.metrics in
  let row =
    [ merge_name; Serve.Session.guarantee_name g;
      Tables.ms (Sim.Stats.Summary.mean m.Metrics.served_staleness);
      Tables.f3 (hit_ratio r);
      string_of_int (Atomic.get m.Metrics.reads_clamped);
      (if served_consistent r then "consistent" else "VIOLATION") ]
  in
  let json =
    Printf.sprintf
      "    { \"merge\": \"%s\", \"guarantee\": \"%s\", \
       \"mean_served_staleness_ms\": %.3f, \"cache_hit_ratio\": %.3f, \
       \"reads_clamped\": %d, \"served_consistent\": %b }"
      merge_name
      (Serve.Session.guarantee_name g)
      (1000.0 *. Sim.Stats.Summary.mean m.Metrics.served_staleness)
      (hit_ratio r) (Atomic.get m.Metrics.reads_clamped) (served_consistent r)
  in
  (row, json)

(* ---- read-path microbenchmark: naive vs compiled vs cached ---- *)

let time_per ~reps f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* A 10k-tuple fact view joined against a 100-tuple dimension view: the
   naive evaluator's nested-loop join scans 10^6 pairs per read, the
   compiled kernel hash-joins, and the result cache reduces a repeat read
   to a lookup. *)
let read_path_db () =
  let rng = Sim.Rng.create 42 in
  let fact =
    Relational.Bag.of_list
      (List.init 10_000 (fun _ ->
           Relational.Tuple.ints
             [ Sim.Rng.int rng 100; Sim.Rng.int rng 1000 ]))
  in
  let dim =
    Relational.Bag.of_list
      (List.init 100 (fun k -> Relational.Tuple.ints [ k; k * 7 ]))
  in
  let schema names =
    Relational.Schema.make
      (List.map (fun n -> (n, Relational.Value.Int_ty)) names)
  in
  Relational.Database.of_list
    [ ("fact",
       Relational.Relation.with_contents
         (Relational.Relation.create (schema [ "k"; "v" ]))
         fact);
      ("dim",
       Relational.Relation.with_contents
         (Relational.Relation.create (schema [ "k"; "w" ]))
         dim) ]

let read_path_case ~quick ~name query =
  let db = read_path_db () in
  let naive_us =
    1e6
    *. time_per ~reps:(if quick then 1 else 3) (fun () ->
           Query.Eval.eval_bag ~naive:true db query)
  in
  let compiled_us =
    1e6
    *. time_per ~reps:(if quick then 20 else 100) (fun () ->
           Query.Compiled.eval_bag db
             (Query.Compiled.compile_memo
                ~lookup:(Relational.Database.schema db)
                query))
  in
  let vm = Serve.Version_manager.create db in
  let cache = Serve.Result_cache.create () in
  let session = Serve.Session.create ~cache ~guarantee:Serve.Session.Latest vm in
  let cached_us =
    1e6
    *. time_per
         ~reps:(if quick then 100 else 1000)
         (fun () -> (Serve.Session.read session ~now:1.0 query).Serve.Session.result)
  in
  (name, naive_us, compiled_us, cached_us)

let read_path_rows ~quick =
  let open Query.Algebra in
  [ read_path_case ~quick ~name:"fact |x| dim (10k x 100)"
      (join (base "fact") (base "dim"));
    read_path_case ~quick ~name:"sel(v<=100) fact (10k)"
      (select (Query.Pred.le "v" (Relational.Value.Int 100)) (base "fact")) ]

let read_path_row (name, naive_us, compiled_us, cached_us) =
  [ name;
    Printf.sprintf "%.0fus" naive_us;
    Printf.sprintf "%.0fus" compiled_us;
    Printf.sprintf "%.1fus" cached_us;
    Printf.sprintf "%.0fx" (naive_us /. cached_us) ]

let read_path_json (name, naive_us, compiled_us, cached_us) =
  Printf.sprintf
    "    { \"query\": \"%s\", \"naive_us\": %.1f, \"compiled_us\": %.1f, \
     \"cached_us\": %.2f, \"speedup_compiled\": %.1f, \"speedup_cached\": \
     %.1f }"
    name naive_us compiled_us cached_us (naive_us /. compiled_us)
    (naive_us /. cached_us)

(* ---- the full experiment ---- *)

let ratios = [ 0.5; 2.0; 8.0 ]

let run () =
  Tables.section
    "S: snapshot serving — read:write sweep, cache ablation, guarantees";
  let scen = scenario ~seed:11 in
  let sweep =
    List.concat_map
      (fun ratio ->
        List.map
          (fun cache -> (ratio, cache, run_point ~ratio ~cache scen))
          [ true; false ])
      ratios
  in
  Tables.print
    ~title:
      "read:write ratio x result cache (auto merge, default session mix)"
    ~header:
      [ "r:w"; "cache"; "reads"; "read latency"; "served staleness";
        "hit ratio"; "clamped"; "versions"; "max pinned" ]
    (List.map (fun (ratio, cache, r) -> sweep_row ~ratio ~cache r) sweep);
  Printf.printf
    "expected shape: staleness is flat in the ratio (reads never block\n\
     writes — MVCC); cache-on rows serve faster (hits draw the cheap\n\
     read_hit service time) without changing any served value.\n";
  let cells =
    List.concat_map
      (fun (merge, merge_name) ->
        List.map (fun g -> matrix_cell ~merge ~merge_name g scen) guarantees)
      [ (System.Force_spa, "spa"); (System.Force_pa, "pa") ]
  in
  Tables.print ~title:"merge x guarantee (4 sessions each, r:w = 4)"
    ~header:
      [ "merge"; "guarantee"; "served staleness"; "hit ratio"; "clamped";
        "served snapshots" ]
    (List.map fst cells);
  let read_path = read_path_rows ~quick:!Micro.quick in
  Tables.print ~title:"read path on a 10k-tuple view (per read)"
    ~header:[ "query"; "naive"; "compiled"; "cached"; "naive/cached" ]
    (List.map read_path_row read_path);
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe serve\",\n\
    \  \"update_rate\": %.1f,\n\
    \  \"ratio_sweep\": [\n%s\n  ],\n\
    \  \"merge_guarantee_matrix\": [\n%s\n  ],\n\
    \  \"read_path_10k\": [\n%s\n  ]\n\
     }\n"
    update_rate
    (String.concat ",\n"
       (List.map (fun (ratio, cache, r) -> sweep_json ~ratio ~cache r) sweep))
    (String.concat ",\n" (List.map snd cells))
    (String.concat ",\n" (List.map read_path_json read_path));
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n%!"

(* ---- deterministic smoke pass for `dune build @serve-smoke` ---- *)

let servesmoke () =
  Tables.section "serve smoke: cached read path vs naive oracle, per read";
  let scen = scenario ~seed:3 in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL: %s\n" msg)
      fmt
  in
  let smoke_run ?refresh cache =
    run_point ~seed:5 ~pin_hit_latency:true ?refresh ~ratio:3.0 ~cache scen
  in
  let with_cache = smoke_run true in
  let without = smoke_run false in
  (* Cache on, refresh off: every snapshot is one [store] left after a
     miss, so these are gated as well as the ones commits refresh. *)
  let store_only = smoke_run ~refresh:false true in
  let runs =
    [ ("on", with_cache); ("off", without); ("on, no refresh", store_only) ]
  in
  let cached_runs = [ with_cache; store_only ] in
  if List.exists (fun (_, r) -> r.System.stuck) runs then fail "run stuck";
  let records r = (serving r).System.reads_served in
  let b = records without in
  (* Snapshots are exercised off the latest version only by historical
     reads and by bounded-staleness sessions: the mix must have both. *)
  if not (List.exists (fun r -> r.System.read_as_of <> None) b) then
    fail "read mix has no as_of reads";
  if
    not
      (List.exists
         (fun r ->
           match r.System.read_guarantee with
           | Serve.Session.Bounded_staleness _ -> true
           | _ -> false)
         b)
  then fail "read mix has no bounded-staleness session";
  (* Every served read replayed through the naive evaluator over the
     exact snapshot it was served from. *)
  List.iter
    (fun (_, run) ->
      List.iter
        (fun r ->
          let expect =
            Query.Eval.eval_bag ~naive:true r.System.read_state
              r.System.read_query
          in
          if not (Relational.Bag.equal expect r.System.read_result) then
            fail "read (session %d, version %d) differs from the naive oracle"
              r.System.read_session r.System.read_version)
        (records run))
    runs;
  (* The cache must be observably transparent, whichever way its
     snapshots are built. *)
  List.iter
    (fun run ->
      let a = records run in
      if List.length a <> List.length b then
        fail "cache changed the number of served reads"
      else
        List.iter2
          (fun x y ->
            if
              x.System.read_version <> y.System.read_version
              || not
                   (Relational.Bag.equal x.System.read_result
                      y.System.read_result)
            then fail "cache changed an observable result")
          a b;
      if Metrics.cache_hit_ratio run.System.metrics <= 0.0 then
        fail "cache never hit")
    cached_runs;
  (* Monotonic sessions never travel backwards. *)
  let monotonic_ok records =
    let last = Hashtbl.create 8 in
    List.for_all
      (fun r ->
        match r.System.read_guarantee with
        | Serve.Session.Monotonic_reads ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt last r.System.read_session)
          in
          Hashtbl.replace last r.System.read_session
            (max prev r.System.read_version);
          r.System.read_version >= prev
        | _ -> true)
      records
  in
  if not (List.for_all (fun (_, r) -> monotonic_ok (records r)) runs) then
    fail "a monotonic session observed an older version";
  if not (List.for_all (fun (_, r) -> served_consistent r) runs) then
    fail "a served snapshot failed the consistency checker";
  Tables.print ~title:"smoke runs (r:w = 3, auto merge)"
    ~header:[ "cache"; "reads"; "hit ratio"; "clamped"; "served snapshots" ]
    (List.map
       (fun (name, r) ->
         let m = r.System.metrics in
         [ name; string_of_int (Atomic.get m.Metrics.reads);
           (if List.memq r cached_runs then Tables.f3 (Metrics.cache_hit_ratio m)
            else "-");
           string_of_int (Atomic.get m.Metrics.reads_clamped);
           "consistent" ])
       runs);
  if !failures > 0 then (
    Printf.printf "SERVE SMOKE FAILED: %d check(s)\n" !failures;
    exit 1)
  else
    Printf.printf "serve smoke ok: %d reads cross-checked\n%!"
      (List.fold_left (fun acc (_, r) -> acc + List.length (records r)) 0 runs)
