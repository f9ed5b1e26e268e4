(* R: resilience experiments. What does the reliability layer cost on a
   clean network, what does it buy on a lossy one, and how fast does a
   crashed view manager catch back up? Results land in
   BENCH_resilience.json (format documented in EXPERIMENTS.md) so future
   PRs can diff the trajectory.

   [faultsoak] is the fast deterministic variant wired to the
   `@soak-smoke` dune alias: a fixed-seed matrix of random fault plans
   that exits nonzero if any acked run gets stuck or misses the
   consistency level its configuration guarantees. *)

open Whips

let verdict_level (r : System.result) =
  Consistency.Checker.(level_name (level (System.verdict r)))

let mean_staleness (r : System.result) =
  Sim.Stats.Summary.mean r.metrics.Metrics.staleness

let scenario ~seed =
  Workload.Generator.generate
    { Workload.Generator.default with
      seed;
      n_relations = 4;
      n_views = 3;
      n_transactions = 30;
      initial_tuples = 5 }

(* Loss plan scaled by a single knob: at rate [p] every channel drops a
   message with probability p, duplicates with p/2, and spikes latency
   with p/2. *)
let plan_for rate =
  if rate <= 0.0 then Workload.Fault_plan.empty
  else
    Workload.Fault_plan.random ~drop:rate ~duplicate:(rate /. 2.0)
      ~delay:(rate /. 2.0) ~delay_by:0.05 "*"

let cfg_for ~rate ~reliability ~seed scen =
  { (System.default scen) with
    vm_kind = System.Complete_vm;
    fault_plan = plan_for rate;
    reliability;
    arrival = System.Poisson 60.0;
    seed }

type outcome = {
  label : string;
  rate : float;
  reliable : bool;
  result : (System.result, string) Stdlib.result;
}

let run_outcome ~label ~rate ~reliability scen =
  let reliable = match reliability with System.Off -> false | _ -> true in
  let result =
    (* With reliability off a loss-induced FIFO gap makes the hardened
       SPA abort with Protocol_error rather than corrupt the warehouse;
       that abort is itself a data point. *)
    match System.run (cfg_for ~rate ~reliability ~seed:7 scen) with
    | r -> Ok r
    | exception Mvc.Vut.Protocol_error _ -> Error "SPA abort (FIFO gap)"
  in
  { label; rate; reliable; result }

let outcome_row o =
  match o.result with
  | Error msg -> [ o.label; Tables.f3 o.rate; msg; "-"; "-"; "-"; "-" ]
  | Ok r ->
    let m = r.metrics in
    [ o.label; Tables.f3 o.rate;
      (if r.stuck then "STUCK" else verdict_level r);
      Printf.sprintf "%d/%d" (Atomic.get m.Metrics.msgs_dropped) (Atomic.get m.Metrics.retransmits);
      string_of_int (Atomic.get m.Metrics.nacks);
      Tables.ms (mean_staleness r);
      Tables.f3 m.Metrics.completed_at ]

let json_outcome o =
  let common =
    Printf.sprintf "\"label\": \"%s\", \"loss_rate\": %.3f, \"reliable\": %b"
      o.label o.rate o.reliable
  in
  match o.result with
  | Error msg ->
    Printf.sprintf "    { %s, \"aborted\": \"%s\" }" common msg
  | Ok r ->
    let m = r.metrics in
    Printf.sprintf
      "    { %s, \"level\": \"%s\", \"stuck\": %b, \"dropped\": %d, \
       \"retransmits\": %d, \"nacks\": %d, \"dup_frames_dropped\": %d, \
       \"commits\": %d, \"mean_staleness_ms\": %.2f, \"drain_s\": %.3f }"
      common (verdict_level r) r.stuck (Atomic.get m.Metrics.msgs_dropped)
      (Atomic.get m.Metrics.retransmits) (Atomic.get m.Metrics.nacks) (Atomic.get m.Metrics.dup_frames_dropped)
      (Atomic.get m.Metrics.commits)
      (1000.0 *. mean_staleness r)
      m.Metrics.completed_at

let crash_outcome () =
  let cfg =
    { (System.default Workload.Scenarios.paper_views) with
      faults =
        [ System.Crash_vm { view = "V2"; at_event = 2; restart_after = 0.1 } ];
      reliability = System.Acked Sim.Reliable.default_params;
      arrival = System.Poisson 60.0;
      seed = 1 }
  in
  System.run cfg

(* ---- durability: recovery time vs checkpoint interval ---- *)

(* Crash the warehouse late in a 30-transaction run and sweep the
   checkpoint cadence. Recovery replays the WAL tail accumulated since
   the last checkpoint at [replay_latency] per record, so recovery time
   should grow with the interval while the run still lands complete. *)
let checkpoint_sweep () =
  let scen = scenario ~seed:11 in
  let acked = System.Acked Sim.Reliable.default_params in
  List.map
    (fun checkpoint_every ->
      let cfg =
        { (cfg_for ~rate:0.0 ~reliability:acked ~seed:4 scen) with
          arrival = System.Poisson 120.0;
          faults =
            [ System.Crash_warehouse { at_event = 20; restart_after = 0.02 } ];
          durable =
            Some
              { System.default_durability with
                checkpoint_every;
                replay_latency = 0.002 } }
      in
      let r = System.run cfg in
      let d = Option.get r.System.durability in
      (checkpoint_every, r, d))
    [ 1; 2; 4; 8; 16; 32 ]

(* ---- durability: what does the WAL cost when nothing crashes? ---- *)

type wal_cost = {
  wall_off_s : float;
  wall_on_s : float;
  overhead_pct : float;
  on_report : System.durability_report;
}

let wal_overhead () =
  (* A workload long enough to amortize per-run fixed costs — the
     headline is the marginal cost of logging every commit and stamped
     transaction, not simulator startup. *)
  let scen =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 11;
        n_relations = 4;
        n_views = 3;
        n_transactions = (if !Micro.quick then 300 else 1500);
        initial_tuples = 5 }
  in
  let acked = System.Acked Sim.Reliable.default_params in
  let cfg durable =
    { (cfg_for ~rate:0.0 ~reliability:acked ~seed:4 scen) with
      arrival = System.Poisson 120.0;
      durable }
  in
  (* The runs are deterministic in simulated time, so the only variance
     is host noise — scheduling and GC state. A paired design defuses
     it: each round times off and on back to back (compacting first, so
     heap history cancels) and contributes one on/off ratio taken under
     the same host conditions; the headline is the interquartile mean
     of the ratios — robust to the slow-window rounds that poison
     independent minima, tighter than a lone median. *)
  let rounds = 31 in
  let timed c =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = System.run c in
    (Unix.gettimeofday () -. t0, r)
  in
  let off_c = cfg None and on_c = cfg (Some System.default_durability) in
  let wall_off_s = ref infinity and wall_on_s = ref infinity in
  let ratios = ref [] in
  let r_on = ref None in
  for _ = 1 to rounds do
    let dt_off, _ = timed off_c in
    let dt_on, r = timed on_c in
    if dt_off < !wall_off_s then wall_off_s := dt_off;
    if dt_on < !wall_on_s then wall_on_s := dt_on;
    if dt_off > 0.0 then ratios := (dt_on /. dt_off) :: !ratios;
    r_on := Some r
  done;
  let wall_off_s = !wall_off_s and wall_on_s = !wall_on_s in
  let r_on = Option.get !r_on in
  let iqm_ratio =
    match List.sort compare !ratios with
    | [] -> 1.0
    | sorted ->
      let n = List.length sorted in
      let lo = n / 4 and hi = n - (n / 4) in
      let mid =
        List.filteri (fun i _ -> i >= lo && i < hi) sorted
      in
      List.fold_left ( +. ) 0.0 mid /. float_of_int (List.length mid)
  in
  { wall_off_s;
    wall_on_s;
    overhead_pct = 100.0 *. (iqm_ratio -. 1.0);
    on_report = Option.get r_on.System.durability }

let run () =
  Tables.section
    "R: reliability layer — overhead when clean, repair when lossy";
  let scen = scenario ~seed:11 in
  let acked = System.Acked Sim.Reliable.default_params in
  let outcomes =
    [ run_outcome ~label:"off, clean" ~rate:0.0 ~reliability:System.Off scen;
      run_outcome ~label:"acked, clean" ~rate:0.0 ~reliability:acked scen;
      run_outcome ~label:"off, lossy" ~rate:0.15 ~reliability:System.Off scen;
      run_outcome ~label:"acked, lossy" ~rate:0.15 ~reliability:acked scen;
      run_outcome ~label:"acked, very lossy" ~rate:0.30 ~reliability:acked
        scen ]
  in
  Tables.print
    ~title:"same workload, loss rate x reliability (SPA / complete managers)"
    ~header:
      [ "config"; "loss"; "consistency"; "dropped/retx"; "nacks";
        "mean staleness"; "drain (s)" ]
    (List.map outcome_row outcomes);
  Printf.printf
    "expected shape: acked rows stay complete at every loss rate (paying \
     staleness\nand drain time for retransmits); off rows abort on a FIFO \
     gap or get stuck.\n";
  let crash = crash_outcome () in
  Tables.print ~title:"crash-restart recovery (complete manager, acked)"
    ~header:
      [ "crashes"; "recoveries"; "consistency"; "retransmits"; "drain (s)" ]
    [ [ string_of_int (Atomic.get crash.metrics.Metrics.crashes);
        string_of_int (Atomic.get crash.metrics.Metrics.recoveries);
        (if crash.stuck then "STUCK" else verdict_level crash);
        string_of_int (Atomic.get crash.metrics.Metrics.retransmits);
        Tables.f3 crash.metrics.Metrics.completed_at ] ];
  let sweep = checkpoint_sweep () in
  Tables.print
    ~title:
      "warehouse crash: recovery time vs checkpoint interval (replay \
       0.002 s/record)"
    ~header:
      [ "ckpt every"; "wal replayed"; "restored"; "recovery (s)";
        "consistency" ]
    (List.map
       (fun (ck, r, (d : System.durability_report)) ->
         [ string_of_int ck; string_of_int d.System.wal_replayed;
           string_of_int d.System.commits_restored;
           Tables.f3 d.System.recovery_time;
           (if r.System.stuck then "STUCK" else verdict_level r) ])
       sweep);
  Printf.printf
    "expected shape: recovery time grows with the checkpoint interval \
     (longer\nWAL tail to replay); every row stays complete.\n";
  let cost = wal_overhead () in
  Tables.print ~title:"WAL overhead on a crash-free run (durable on vs off)"
    ~header:
      [ "wall off (s)"; "wall on (s)"; "overhead"; "wal bytes"; "appends";
        "syncs"; "checkpoints" ]
    [ [ Printf.sprintf "%.4f" cost.wall_off_s;
        Printf.sprintf "%.4f" cost.wall_on_s;
        Printf.sprintf "%.1f%%" cost.overhead_pct;
        string_of_int cost.on_report.System.wal_bytes;
        string_of_int cost.on_report.System.wal_appends;
        string_of_int cost.on_report.System.wal_syncs;
        string_of_int cost.on_report.System.wal_checkpoints ] ];
  (* The headline the summary gate tracks: recovery time at the default
     checkpoint cadence (simulated seconds, deterministic). *)
  let headline_recovery =
    match
      List.find_opt
        (fun (ck, _, _) -> ck = System.default_durability.System.checkpoint_every)
        sweep
    with
    | Some (_, _, d) -> d.System.recovery_time
    | None -> 0.0
  in
  let json_ck (ck, r, (d : System.durability_report)) =
    Printf.sprintf
      "    { \"checkpoint_every\": %d, \"wal_replayed\": %d, \
       \"commits_restored\": %d, \"recovery_s\": %.4f, \"level\": \"%s\" }"
      ck d.System.wal_replayed d.System.commits_restored d.System.recovery_time
      (verdict_level r)
  in
  let oc = open_out "BENCH_resilience.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 2,\n\
    \  \"generated_by\": \"bench/main.exe resilience\",\n\
    \  \"recovery_headline_s\": %.4f,\n\
    \  \"wal_overhead_pct\": %.2f,\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"crash_recovery\": { \"crashes\": %d, \"recoveries\": %d, \
     \"level\": \"%s\", \"drain_s\": %.3f },\n\
    \  \"checkpoint_sweep\": [\n%s\n  ],\n\
    \  \"wal_overhead\": { \"wall_off_s\": %.4f, \"wall_on_s\": %.4f, \
     \"overhead_pct\": %.2f, \"wal_bytes\": %d, \"wal_appends\": %d, \
     \"wal_syncs\": %d, \"wal_checkpoints\": %d }\n\
     }\n"
    headline_recovery cost.overhead_pct
    (String.concat ",\n" (List.map json_outcome outcomes))
    (Atomic.get crash.metrics.Metrics.crashes) (Atomic.get crash.metrics.Metrics.recoveries)
    (verdict_level crash) crash.metrics.Metrics.completed_at
    (String.concat ",\n" (List.map json_ck sweep))
    cost.wall_off_s cost.wall_on_s cost.overhead_pct
    cost.on_report.System.wal_bytes cost.on_report.System.wal_appends
    cost.on_report.System.wal_syncs cost.on_report.System.wal_checkpoints;
  close_out oc;
  Printf.printf "wrote BENCH_resilience.json\n%!"

(* ---- deterministic smoke soak for `dune build @soak-smoke` ---- *)

let faultsoak () =
  Tables.section "fault soak (smoke): random fault plans under acked channels";
  let n = if !Micro.quick then 8 else 24 in
  let failures = ref 0 in
  let one seed =
    let rng = Sim.Rng.create (0xFA57 + seed) in
    let scen =
      Workload.Generator.generate
        { Workload.Generator.default with
          seed = 1 + Sim.Rng.int rng 1000;
          n_views = 3;
          n_transactions = 8;
          initial_tuples = 4 }
    in
    let vm_kind, merge_kind, want, label =
      match seed mod 3 with
      | 0 ->
        (System.Complete_vm, System.Auto, Consistency.Checker.Complete,
         "complete/spa")
      | 1 ->
        (System.Complete_vm, System.Force_pa, Consistency.Checker.Strong,
         "complete/pa")
      | _ ->
        (System.Batching_vm, System.Auto, Consistency.Checker.Strong,
         "batching/pa")
    in
    let faults =
      if seed mod 4 = 0 then
        [ System.Crash_vm
            { view = Query.View.name (List.hd scen.Workload.Scenarios.views);
              at_event = 1 + Sim.Rng.int rng 3;
              restart_after = 0.05 +. Sim.Rng.float rng 0.1 } ]
      else []
    in
    let cfg =
      { (System.default scen) with
        vm_kind;
        merge_kind;
        fault_plan =
          Workload.Fault_plan.random ~drop:0.15 ~duplicate:0.1 ~delay:0.1
            ~delay_by:0.05 "*";
        faults;
        reliability = System.Acked Sim.Reliable.default_params;
        arrival = System.Poisson 80.0;
        seed = Sim.Rng.int rng 10_000 }
    in
    let r = System.run cfg in
    let v = System.verdict r in
    let ok = (not r.stuck) && Consistency.Checker.at_least want v in
    if not ok then incr failures;
    [ string_of_int seed; label;
      string_of_int (Atomic.get r.metrics.Metrics.msgs_dropped);
      string_of_int (Atomic.get r.metrics.Metrics.retransmits);
      string_of_int (Atomic.get r.metrics.Metrics.crashes);
      (if r.stuck then "STUCK" else Consistency.Checker.(level_name (level v)));
      (if ok then "ok" else "FAIL") ]
  in
  let rows = List.map one (List.init n (fun i -> i + 1)) in
  Tables.print
    ~title:
      (Printf.sprintf
         "%d seeded runs, 15%% drop / 10%% dup / 10%% delay on every channel"
         n)
    ~header:
      [ "seed"; "config"; "dropped"; "retx"; "crashes"; "consistency";
        "verdict" ]
    rows;
  if !failures > 0 then (
    Printf.printf "FAULT SOAK FAILED: %d/%d runs violated their guarantee\n"
      !failures n;
    exit 1)
  else Printf.printf "fault soak ok: %d/%d runs kept their guarantee\n%!" n n

(* ---- deterministic crash smoke for `dune build @crash-smoke` ---- *)

(* Each stateful singleton process is crashed mid-run at 1 and 4
   domains; the recovered run must not be stuck, must end in a final
   warehouse state byte-identical to a crash-free twin of the same
   configuration, and must pass the recovery certificate (nothing
   committed lost, nothing applied twice, served versions monotonic).
   Exits nonzero on any divergence. *)
let crashsmoke () =
  Tables.section
    "crash-smoke: process crashes must recover to the crash-free state";
  let acked = System.Acked Sim.Reliable.default_params in
  let pinned =
    [ ("merge", System.Crash_merge { at_event = 3; restart_after = 0.05 });
      ("integrator",
       System.Crash_integrator { at_event = 2; restart_after = 0.05 });
      ("warehouse",
       System.Crash_warehouse { at_event = 2; restart_after = 0.05 }) ]
  in
  let failures = ref 0 in
  List.iter
    (fun (fname, fault) ->
      List.iter
        (fun domains ->
          let run faults =
            System.run
              { (System.default Workload.Scenarios.paper_views) with
                faults;
                reliability = acked;
                arrival = System.Poisson 60.0;
                parallel =
                  { Parallel.Config.domains;
                    shards = domains;
                    model_overlap = false };
                seed = 1 }
          in
          let crash = run [ fault ] and clean = run [] in
          let identical =
            Relational.Database.equal
              (Warehouse.Store.snapshot crash.System.store)
              (Warehouse.Store.snapshot clean.System.store)
            && Warehouse.Store.commit_count crash.System.store
               = Warehouse.Store.commit_count clean.System.store
          in
          let recovered =
            (not crash.System.stuck)
            && Atomic.get crash.System.metrics.Metrics.recoveries >= 1
          in
          let certified =
            Consistency.Checker.certified (System.recovery_certificate crash)
          in
          let ok = identical && recovered && certified in
          if not ok then incr failures;
          Printf.printf "crash-smoke %-10s domains %d: %s\n%!" fname domains
            (if ok then "recovered identical"
             else
               Printf.sprintf "FAILED (recovered %b identical %b cert %b)"
                 recovered identical certified))
        [ 1; 4 ])
    pinned;
  if !failures > 0 then begin
    Printf.printf "CRASH SMOKE FAILED: %d configurations diverged\n" !failures;
    exit 1
  end
  else
    Printf.printf
      "crash smoke ok: every crash recovered to the crash-free state\n%!"
