(* Timed runs, replays and correctness checks for one workload, and the
   metric catalogue computed from them.

   End-to-end metrics come from [System.run] with tracing off and from
   the untraced replay (per-update and per-read latencies); per-layer
   metrics come from traced replays and from [System.run]'s own
   counters. Every timed run is preceded by [Gc.compact ()].

   A shared host's speed drifts: co-tenant load can slow the same work
   down by up to 2x for seconds at a time. A run therefore reports its fastest
   repetition for throughput, and for latency the percentiles of each
   update's fastest time across the run's replays — every replay runs
   the same deterministic inputs, so each update's minimum is its cost
   without interference, while costs the program really pays on every
   repetition (GC pauses, large deltas) stay in the tail. *)

open Relational
open Whips

let seconds_since t0 = float_of_int (Span.now () - t0) /. 1e9

(* ---- statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, as [Sim.Stats.Summary.percentile]. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles with Python's [statistics.quantiles(data,
   n=4)] (the "exclusive" method), so reported spreads match what an
   outside script computes from the same values. *)
let quartiles l =
  let a = sorted (Array.of_list l) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let list_min l = List.fold_left Float.min infinity l

let list_max l = List.fold_left Float.max neg_infinity l

(* Elementwise minimum of equally long sample arrays. *)
let fastest = function
  | [] -> [||]
  | first :: rest ->
    let m = Array.copy first in
    List.iter (Array.iteri (fun i x -> if x < m.(i) then m.(i) <- x)) rest;
    m

(* ---- one repetition ---- *)

type rep = {
  run_s : float;
  steady_s : float;  (** [run_s] minus the empty-script wall. *)
  reads_served : int;
  update_ns : float array;
      (** Per-update path times: each update's fastest across the rep's
          untraced replays. *)
  read_ns : float array;  (** Per-read times, likewise. *)
  replay_s : float;  (** The fastest untraced replay loop. *)
  live_heap_mb : float;
  alloc_words_per_update : float;
  wts_per_run : float;  (** [System.run]'s merge and store counters. *)
  held_max : float;
  cancel_ratio : float;
  seq_fallbacks : float;
  staleness_p50_ms : float;
  staleness_p99_ms : float;
  attempted : int;
  failed : int;
}

type check = { check : string; ok : bool; detail : string }

type state = {
  w : Workloads.t;
  n : int;
  seed : int;
  cfg : System.config;
  relevant : int;  (** Transactions relevant to at least one view. *)
  mutable setup_s : float list;
      (** [setups_per_rep] before each rep, so the set-ups sample the
          whole run window in a warm process. *)
  mutable empty_s : float list;
  mutable reps : rep list;  (** Newest first. *)
  mutable reference : (string * Bag.t) list option;
      (** Final view contents of the first timed run. *)
  mutable checks : check list;
  mutable traced : Replay.result option;  (** The fastest traced replay. *)
}

let views_of (cfg : System.config) = cfg.System.scenario.Workload.Scenarios.views

let contents_of_store cfg store =
  List.map
    (fun v ->
      let name = Query.View.name v in
      (name, Relation.contents (Warehouse.Store.view store name)))
    (views_of cfg)

let same_contents a b =
  List.length a = List.length b
  && List.for_all2 (fun (x, bx) (y, by) -> String.equal x y && Bag.equal bx by) a b

(* Checks accumulate by name across reps: one failing rep fails the
   check. Kept in first-recorded order. *)
let add_check st check ok detail =
  if List.exists (fun c -> String.equal c.check check) st.checks then
    st.checks <-
      List.map
        (fun c ->
          if String.equal c.check check && c.ok && not ok then { c with ok; detail }
          else c)
        st.checks
  else st.checks <- st.checks @ [ { check; ok; detail } ]

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One set-up: generate the inputs and run the same config with an
   empty script. Returns the set-up wall and the empty-run wall. *)
let set_up (w : Workloads.t) ~seed ~n =
  let t0 = Span.now () in
  let cfg = w.Workloads.config ~seed ~n in
  let t1 = Span.now () in
  ignore (Sys.opaque_identity (System.run (Workloads.empty cfg)));
  (seconds_since t0, seconds_since t1)

(* A set-up takes milliseconds, so its median needs many samples. Only
   set-ups in a warm process count: the first allocations of a fresh
   process are slower and vary more. Each starts from a compacted heap,
   so it pays no GC work for the garbage of the replay before it. *)
let setups_per_rep = 3

let create (w : Workloads.t) ~seed ~n =
  let cfg = w.Workloads.config ~seed ~n in
  let views = views_of cfg in
  let relevant =
    List.length
      (List.filter
         (fun updates ->
           List.exists
             (fun (u : Update.t) ->
               List.exists (fun v -> Query.View.uses v u.Update.relation) views)
             updates)
         cfg.System.scenario.Workload.Scenarios.script)
  in
  { w; n; seed; cfg; relevant; setup_s = []; empty_s = []; reps = []; reference = None;
    checks = []; traced = None }

let n_reads (cfg : System.config) =
  match cfg.System.reads with Some rp -> rp.System.n_reads | None -> 0

(* A traced replay of the same inputs; the fastest one is kept for the
   per-layer breakdown. *)
let traced_replay st =
  Gc.compact ();
  let r = Replay.run ~traced:true st.cfg in
  (match st.reference with
  | Some reference ->
    add_check st "traced replay store = System.run store"
      (same_contents reference (contents_of_store st.cfg r.Replay.store)) ""
  | None -> ());
  match st.traced with
  | Some best when best.Replay.wall_ns <= r.Replay.wall_ns -> ()
  | _ -> st.traced <- Some r

(* Untraced replays per repetition. The latency percentiles take each
   update's fastest time across every replay of the run, and their tail
   steadies as replays are added; the throughput of [System.run], a
   whole-run figure, needs fewer samples. *)
let replays_per_rep = 2

(* One repetition: a timed [System.run], then [replays_per_rep] untraced
   replays of the same inputs (and, with [traced], a traced one). The
   run's final views must equal the first run's (the first is checked
   against the naive oracle), and each replay's must equal the run's. *)
let rep st ~traced =
  let cfg = st.cfg in
  for _ = 1 to setups_per_rep do
    Gc.compact ();
    let setup_s, empty_s = set_up st.w ~seed:st.seed ~n:st.n in
    st.setup_s <- setup_s :: st.setup_s;
    st.empty_s <- empty_s :: st.empty_s
  done;
  Gc.compact ();
  let live0 = live_words () in
  let alloc0 = allocated_words () in
  let t0 = Span.now () in
  (* The served-read records (every result bag) are kept by System.run
     for the read oracle only; they are dropped before the heap is
     measured so [live_heap_mb] counts the system's own state. *)
  let result =
    try
      let r = System.run cfg in
      Ok
        { r with
          System.serving =
            Option.map (fun s -> { s with System.reads_served = [] }) r.System.serving }
    with System.Stuck msg -> Error msg
  in
  let run_s = seconds_since t0 in
  let alloc = allocated_words () -. alloc0 in
  match result with
  | Error msg -> add_check st "run drains" false msg
  | Ok r ->
    let live_heap_mb = float_of_int (live_words () - live0) *. 8.0 /. 1e6 in
    let m = r.System.metrics in
    let committed = Sim.Stats.Summary.count m.Metrics.staleness in
    let reads_served = Atomic.get m.Metrics.reads in
    let failed = max 0 (st.relevant - committed) + max 0 (n_reads cfg - reads_served) in
    add_check st "run drains" (not r.System.stuck) "stuck";
    add_check st "every update committed, every read served" (failed = 0)
      (Printf.sprintf "%d missing" failed);
    let final = contents_of_store cfg r.System.store in
    (match st.reference with
    | None ->
      st.reference <- Some final;
      let current = Source.Sources.current r.System.sources in
      let bad =
        List.filter
          (fun v ->
            not
              (Bag.equal
                 (Query.Eval.eval_bag ~naive:true current v.Query.View.def)
                 (List.assoc (Query.View.name v) final)))
          (views_of cfg)
      in
      add_check st "final views = naive eval over Sources.current" (bad = [])
        (String.concat ", " (List.map Query.View.name bad))
    | Some reference ->
      add_check st "final views equal across runs" (same_contents reference final) "");
    let staleness p = 1e3 *. Sim.Stats.Summary.percentile m.Metrics.staleness p in
    let wts_per_run = Sim.Stats.Summary.mean m.Metrics.merge_batch_size
    and held_max = Sim.Stats.Summary.max m.Metrics.merge_held
    and cancel_ratio = Metrics.coalesce_cancel_ratio m
    and seq_fallbacks = float_of_int (Atomic.get m.Metrics.coalesce_fallbacks)
    and staleness_p50_ms = staleness 50.0
    and staleness_p99_ms = staleness 99.0 in
    (* The run's result stays live until here, so [live_heap_mb] counted
       it; the replays then run without it. *)
    ignore (Sys.opaque_identity r);
    let replays =
      List.init replays_per_rep (fun _ ->
          Gc.compact ();
          let replay = Replay.run ~traced:false cfg in
          add_check st "replay store = System.run store"
            (same_contents final (contents_of_store cfg replay.Replay.store)) "";
          replay)
    in
    if traced then traced_replay st;
    st.reps <-
      { run_s; steady_s = run_s -. median st.empty_s; reads_served;
        update_ns = fastest (List.map (fun p -> p.Replay.update_ns) replays);
        read_ns = fastest (List.map (fun p -> p.Replay.read_ns) replays);
        replay_s =
          list_min (List.map (fun p -> float_of_int p.Replay.wall_ns /. 1e9) replays);
        live_heap_mb; alloc_words_per_update = alloc /. float_of_int st.n;
        wts_per_run; held_max; cancel_ratio; seq_fallbacks;
        staleness_p50_ms; staleness_p99_ms;
        attempted = st.relevant + n_reads cfg; failed }
      :: st.reps

let prefix_len = 150

let min_prefix_len = 20

(* A 150-transaction prefix with the full commit history must be
   certified complete by the consistency oracle; on a read mix every
   served read must equal the naive evaluator over the exact state it
   was served from.

   The oracle's cut search is bounded: it keeps at most 60 candidate
   source states per view, so on tenant-durable, where most of the 64
   views keep the same contents across most source states, a 150-txn
   prefix can come back inconclusive (a search artifact, not a
   violation). An inconclusive verdict halves the prefix and runs again;
   a conclusive one, or the shortest prefix, decides. *)
let check_prefix st =
  let cfg = st.cfg in
  let run_prefix k =
    let script =
      List.filteri (fun i _ -> i < k) cfg.System.scenario.Workload.Scenarios.script
    in
    System.run
      { cfg with
        System.scenario = { cfg.System.scenario with Workload.Scenarios.script };
        store_retention = Warehouse.Store.Keep_all;
        reads =
          Option.map
            (fun (rp : System.read_profile) ->
              { rp with System.n_reads = rp.System.n_reads * k / st.n })
            cfg.System.reads }
  in
  let rec certify k =
    let r = run_prefix k in
    let v = System.verdict r in
    if v.Consistency.Checker.conclusive || k / 2 < min_prefix_len then (k, r, v)
    else certify (k / 2)
  in
  match certify (min prefix_len st.n) with
  | exception System.Stuck msg -> add_check st "prefix drains" false msg
  | k, r, v ->
    add_check st
      (Printf.sprintf "%d-txn prefix verdict = complete" k)
      v.Consistency.Checker.complete v.Consistency.Checker.detail;
    match r.System.serving with
    | None -> ()
    | Some s ->
      let bad =
        List.filter
          (fun (rd : System.read_record) ->
            not
              (Bag.equal
                 (Query.Eval.eval_bag ~naive:true rd.System.read_state rd.System.read_query)
                 rd.System.read_result))
          s.System.reads_served
      in
      add_check st
        (Printf.sprintf "prefix served reads = naive eval (%d reads)"
           (List.length s.System.reads_served))
        (bad = [] && s.System.reads_served <> [])
        (Printf.sprintf "%d mismatches" (List.length bad))

(* ---- the metric catalogue ---- *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** End-to-end metrics: allowed regression as a share of the base
          value (0 admits none). Per-layer metrics have no bound. *)
  model : bool;  (** A simulated value, not a measurement. *)
  reads_only : bool;  (** Only defined on a mix with reads. *)
  contract : bool;  (** Listed in BENCHMARK.json: defined on every workload. *)
}

(* BENCHMARK.json lists an end-to-end metric only when every workload
   measures it and it is never 0: the read metrics exist on serve-mix
   alone, the model metrics are simulated, and the failure ratio is 0 on
   a correct run. [compare] judges all of them. *)
let e2e ?(reads_only = false) ?(model = false) ?(contract = true) name unit_ better bound =
  { name; unit_; better; bound = Some bound; model; reads_only;
    contract = contract && not reads_only && not model }

(* A per-layer time is listed only when every workload measures it: the
   WAL and serving spans never run on three of the four workloads, and a
   time that reads 0 on every run is not a measurement. *)
let layer ?(contract = true) name unit_ better =
  { name; unit_; better; bound = None; model = false; reads_only = false; contract }

(* A tail percentile needs at least ten samples beyond it to be steady.
   The update path's is the 95th: serve-mix's 300 updates leave 15
   beyond it, and 3 beyond the 99th. Reads number ten times the updates,
   so theirs stays at the 99th. *)
let end_to_end =
  [ e2e "setup_s" "s" Lower 0.25;
    e2e "updates_per_s" "1/s" Higher 0.25;
    e2e ~reads_only:true "reads_per_s" "1/s" Higher 0.25;
    e2e "update_path_us_p50" "us" Lower 0.25;
    e2e "update_path_us_p95" "us" Lower 0.25;
    e2e ~reads_only:true "read_us_p50" "us" Lower 0.25;
    e2e ~reads_only:true "read_us_p99" "us" Lower 0.25;
    e2e ~model:true "model_staleness_ms_p50" "ms" Lower 0.01;
    e2e ~model:true "model_staleness_ms_p99" "ms" Lower 0.01;
    e2e "live_heap_mb" "MB" Lower 0.10;
    e2e ~contract:false "failed_ratio" "ratio" Lower 0.0 ]

let per_layer =
  [ layer "source.execute_us" "us" Lower;
    layer "integrator.ingest_us" "us" Lower;
    layer "integrator.rel_views" "views" Lower;
    layer "vm.project_us" "us" Lower;
    layer "vm.delta_us" "us" Lower;
    layer "vm.advance_us" "us" Lower;
    layer "vm.delta_rows" "rows" Lower;
    layer "query.kernel_rows_per_update" "rows" Lower;
    layer "merge.rel_us" "us" Lower;
    layer "merge.al_us" "us" Lower;
    layer "merge.wts_per_run" "wts" Higher;
    layer "merge.held_max" "als" Lower;
    layer "store.plan_us" "us" Lower;
    layer "store.install_us" "us" Lower;
    layer "store.coalesce_cancel_ratio" "ratio" Higher;
    layer "store.seq_fallbacks" "count" Lower;
    layer ~contract:false "wal.append_us" "us" Lower;
    layer ~contract:false "wal.seal_us" "us" Lower;
    layer ~contract:false "wal.integ_append_us" "us" Lower;
    layer "wal.bytes_per_commit" "B" Lower;
    layer "wal.syncs_per_commit" "syncs" Lower;
    layer ~contract:false "serve.publish_us" "us" Lower;
    layer ~contract:false "cache.commit_us" "us" Lower;
    layer ~contract:false "serve.read_hit_us" "us" Lower;
    layer ~contract:false "serve.read_miss_us" "us" Lower;
    layer "cache.hit_ratio" "ratio" Higher;
    layer "alloc_words_per_update" "words" Lower;
    layer "whips.glue_us_per_update" "us" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.coverage_pct" "%" Higher ]

let applies st m = (not m.reads_only) || st.cfg.System.reads <> None

(* The reported value of an end-to-end metric and its per-rep values
   ([setup_s]: one per set-up). *)
let e2e st name =
  let reps = List.rev st.reps in
  let per g = List.map g reps in
  (* The fastest rep for throughput, the worst for failures. *)
  let highest values = (list_max values, values) in
  let typical values = (median values, values) in
  let latency samples p =
    let us a = percentile a p /. 1e3 in
    (us (fastest (per samples)), per (fun r -> us (samples r)))
  in
  match name with
  | "setup_s" -> typical st.setup_s
  | "updates_per_s" -> highest (per (fun r -> float_of_int st.n /. r.steady_s))
  | "reads_per_s" -> highest (per (fun r -> float_of_int r.reads_served /. r.steady_s))
  | "update_path_us_p50" -> latency (fun r -> r.update_ns) 50.0
  | "update_path_us_p95" -> latency (fun r -> r.update_ns) 95.0
  | "read_us_p50" -> latency (fun r -> r.read_ns) 50.0
  | "read_us_p99" -> latency (fun r -> r.read_ns) 99.0
  | "model_staleness_ms_p50" -> typical (per (fun r -> r.staleness_p50_ms))
  | "model_staleness_ms_p99" -> typical (per (fun r -> r.staleness_p99_ms))
  | "live_heap_mb" -> typical (per (fun r -> r.live_heap_mb))
  | "failed_ratio" ->
    highest (per (fun r -> float_of_int r.failed /. float_of_int (max 1 r.attempted)))
  | _ -> invalid_arg ("Measure.e2e: " ^ name)

(* Per-layer values: span self times per update from the fastest traced
   replay, counters from the replay and from [System.run]. *)
let layer_values st =
  match (st.traced, st.reps) with
  | None, _ | _, [] -> []
  | Some r, reps ->
    let n = float_of_int r.Replay.updates in
    let totals = Span.totals r.Replay.spans in
    let self name =
      match List.find_opt (fun (s, _, _) -> String.equal s name) totals with
      | Some (_, ns, _) -> float_of_int ns
      | None -> 0.0
    in
    let per_update name = self name /. n /. 1e3 in
    let c = r.Replay.counters in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let mean_read hit =
      let sum = ref 0.0 and k = ref 0 in
      Array.iteri
        (fun j ns ->
          if r.Replay.read_hit.(j) = hit then begin
            sum := !sum +. ns;
            incr k
          end)
        r.Replay.read_ns;
      if !k = 0 then 0.0 else !sum /. float_of_int !k /. 1e3
    in
    let run g = median (List.map g reps) in
    let untraced_s = list_min (List.map (fun rp -> rp.replay_s) reps) in
    let steady_s = list_min (List.map (fun rp -> rp.steady_s) reps) in
    let traced_s = float_of_int r.Replay.wall_ns /. 1e9 in
    let self_sum = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 totals in
    [ ("source.execute_us", per_update "source.execute");
      ("integrator.ingest_us", per_update "integrator.ingest");
      ("integrator.rel_views", float_of_int c.Replay.rel_views /. n);
      ("vm.project_us", per_update "vm.project");
      ("vm.delta_us", per_update "vm.delta");
      ("vm.advance_us", per_update "vm.advance");
      ("vm.delta_rows", float_of_int c.Replay.delta_rows /. n);
      ("query.kernel_rows_per_update", float_of_int r.Replay.kernel_rows /. n);
      ("merge.rel_us", per_update "merge.receive_rel");
      ("merge.al_us", per_update "merge.receive_action_list");
      ("merge.wts_per_run", run (fun rp -> rp.wts_per_run));
      ("merge.held_max", run (fun rp -> rp.held_max));
      ("store.plan_us", per_update "store.plan_run");
      ("store.install_us", per_update "store.install");
      ("store.coalesce_cancel_ratio", run (fun rp -> rp.cancel_ratio));
      ("store.seq_fallbacks", run (fun rp -> rp.seq_fallbacks));
      ("wal.append_us", per_update "wal.append");
      ("wal.seal_us", per_update "wal.seal");
      ("wal.integ_append_us", per_update "wal.integ_append");
      ("wal.bytes_per_commit", ratio r.Replay.wal_bytes c.Replay.commits);
      ("wal.syncs_per_commit", ratio r.Replay.wal_syncs c.Replay.commits);
      ("serve.publish_us", per_update "serve.publish");
      ("cache.commit_us", per_update "cache.commit");
      ("serve.read_hit_us", mean_read true);
      ("serve.read_miss_us", mean_read false);
      ( "cache.hit_ratio",
        match r.Replay.cache_stats with
        | Some s ->
          ratio s.Serve.Result_cache.hits
            (s.Serve.Result_cache.hits + s.Serve.Result_cache.misses)
        | None -> 0.0 );
      ("alloc_words_per_update", run (fun rp -> rp.alloc_words_per_update));
      ("whips.glue_us_per_update", (steady_s -. untraced_s) /. n *. 1e6);
      ("trace.overhead_pct", 100.0 *. (traced_s -. untraced_s) /. untraced_s);
      ("trace.coverage_pct", 100.0 *. float_of_int self_sum /. float_of_int r.Replay.wall_ns) ]

let correct st = st.reps <> [] && List.for_all (fun c -> c.ok) st.checks

let attempted st = List.fold_left (fun acc r -> acc + r.attempted) 0 st.reps

let failed st = List.fold_left (fun acc r -> acc + r.failed) 0 st.reps
