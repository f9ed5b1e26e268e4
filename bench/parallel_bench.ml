(* P: multicore maintenance-runtime ablations. Three sweeps land in
   BENCH_parallel.json (format documented in EXPERIMENTS.md):

   - kernel: the compiled hash-join kernel on the 10k-tuple workloads at
     domain count x shard count, against the sequential kernel, with a
     bag-equality assertion on every point;
   - end-to-end: the full system on a 10k-tuple fan-out workload (six
     join views over the same 10k-row R |><| S) at 1/2/4 domains — wall
     clock, an identical-results assertion across domain counts, and the
     [model_overlap] latency model giving the simulated speedup of
     overlapped per-view computation over the strawman's sum (the
     headline speedup_vs_sequential_at_4_domains);
   - merge groups: Figure 3's partitioned merge over four disjoint view
     families at 1/2/4 groups, each group's merge work on its own domain
     and the merge deliberately loaded (benchmark P2 style).

   [host_cores] is reported honestly: on a single-core host the wall
   clock cannot improve with domains, only the modeled overlap can —
   the determinism guarantee (identical commits, reads and verdicts at
   every domain count) is what the real-execution knob buys there.

   [diff_rows] are the @diff-smoke rows for the domain knob: domains
   1/2/4 must produce identical warehouse commits, served reads and
   oracle verdicts, on both the pipelined and the sequential-strawman
   runtimes and under a partitioned merge, and [model_overlap] must move
   timestamps only. *)

open Relational
open Whips

let host_cores = Domain.recommended_domain_count ()

let quick () = !Micro.quick

let time_min ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let exec_of ~domains ~shards =
  Parallel.Config.exec
    { Parallel.Config.domains; shards; model_overlap = false }

(* ---- kernel sweep: domains x shards on the 10k-tuple join ---- *)

type kernel_point = {
  k_domains : int;
  k_shards : int;
  eval_ms : float;
  delta_ms : float;
}

let kernel_grid = [ (1, 1); (2, 2); (4, 4); (4, 8) ]

let kernel_sweep () =
  let n = if quick () then 2_000 else 10_000 in
  let reps = if quick () then 1 else 3 in
  let db, expr, changes = Micro.delta_kernel_setup n in
  let plan = Query.Compiled.compile ~lookup:(Database.schema db) expr in
  let reference = Query.Compiled.eval_bag db plan in
  let reference_delta = Query.Delta.eval ~pre:db changes expr in
  let points =
    List.map
      (fun (k_domains, k_shards) ->
        let exec = exec_of ~domains:k_domains ~shards:k_shards in
        let got = Query.Compiled.eval_bag ~exec db plan in
        if not (Bag.equal got reference) then
          failwith
            (Printf.sprintf "sharded eval diverged at %dx%d" k_domains
               k_shards);
        let got_delta = Query.Delta.eval ~exec ~pre:db changes expr in
        if not (Signed_bag.equal got_delta reference_delta) then
          failwith
            (Printf.sprintf "sharded delta diverged at %dx%d" k_domains
               k_shards);
        let eval_ms =
          1000.0
          *. time_min ~reps (fun () -> Query.Compiled.eval_bag ~exec db plan)
        in
        let delta_ms =
          1000.0
          *. time_min ~reps (fun () ->
                 Query.Delta.eval ~exec ~pre:db changes expr)
        in
        { k_domains; k_shards; eval_ms; delta_ms })
      kernel_grid
  in
  (n, points)

(* ---- the fan-out workload: six join views over the same 10k rows ---- *)

let int_schema names = Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

let random_bag_wide seed n ~range =
  let rng = Sim.Rng.create seed in
  let rec loop i acc =
    if i = 0 then acc
    else
      loop (i - 1)
        (Bag.add (Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng range ]) acc)
  in
  loop n Bag.empty

(* Every view joins R and S, so every transaction fans out to all six
   managers — the shape where overlapping per-view computation pays. *)
let fanout_scenario ~rows ~txns =
  let range = 2 * rows in
  let rs = int_schema [ "A"; "B" ]
  and ss = int_schema [ "B"; "C" ] in
  let joined = Query.Algebra.(join (base "R") (base "S")) in
  let sel p = Query.Algebra.select p joined in
  let views =
    [ Query.View.make "V1" joined;
      Query.View.make "V2" (sel (Query.Pred.lt "A" (Value.Int (range / 2))));
      Query.View.make "V3" (sel (Query.Pred.ge "A" (Value.Int (range / 2))));
      Query.View.make "V4" (sel (Query.Pred.lt "C" (Value.Int (range / 4))));
      Query.View.make "V5" (sel (Query.Pred.ge "C" (Value.Int (range / 4))));
      Query.View.make "V6" (Query.Algebra.project [ "A"; "C" ] joined) ]
  in
  let rng = Sim.Rng.create 31 in
  let tuple () = Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng range ] in
  let script =
    List.init txns (fun i ->
        let rel = if i mod 3 = 2 then "R" else "S" in
        [ Update.insert rel (tuple ()); Update.insert rel (tuple ()) ])
  in
  { Workload.Scenarios.name = Printf.sprintf "fanout-%dk" (rows / 1000);
    specs =
      [ { Source.Sources.source = "src1";
          relation = "R";
          init =
            Relation.with_contents (Relation.create rs)
              (random_bag_wide 1 rows ~range) };
        { Source.Sources.source = "src2";
          relation = "S";
          init =
            Relation.with_contents (Relation.create ss)
              (random_bag_wide 2 rows ~range) } ];
    views;
    script }

let run_system ?merge_groups ?reads ?latencies ~merge ~domains ~shards
    ~model_overlap scen =
  let latencies =
    Option.value latencies ~default:System.default_latencies
  in
  System.run
    { (System.default scen) with
      merge_kind = merge;
      arrival = System.Uniform 0.02;
      latencies;
      merge_groups;
      reads;
      parallel = { Parallel.Config.domains; shards; model_overlap };
      seed = 9 }

(* ---- end-to-end: wall clock + identity + modeled overlap ---- *)

type e2e_point = {
  e_domains : int;
  e_wall_s : float;
  e_identical : bool;
}

type overlap_point = {
  o_domains : int;
  o_completed_s : float;
  o_speedup : float;
}

let domain_counts = [ 1; 2; 4 ]

let end_to_end () =
  let rows = if quick () then 2_000 else 10_000 in
  let txns = if quick () then 6 else 16 in
  let scen = fanout_scenario ~rows ~txns in
  let run ~domains ~model_overlap =
    run_system ~merge:System.Sequential ~domains ~shards:domains
      ~model_overlap scen
  in
  let baseline = run ~domains:1 ~model_overlap:false in
  let base_sig = Diffsmoke.signature baseline in
  let wall =
    List.map
      (fun d ->
        let t0 = Unix.gettimeofday () in
        let r = run ~domains:d ~model_overlap:false in
        let e_wall_s = Unix.gettimeofday () -. t0 in
        let e_identical =
          Diffsmoke.signatures_equal (Diffsmoke.signature r) base_sig
        in
        if not e_identical then
          failwith (Printf.sprintf "domains=%d diverged from sequential" d);
        { e_domains = d; e_wall_s; e_identical })
      domain_counts
  in
  let _, _, base_completed, base_views = base_sig in
  let overlap =
    List.map
      (fun d ->
        let r = run ~domains:d ~model_overlap:true in
        let _, _, completed, views = Diffsmoke.signature r in
        (* The latency model moves timestamps only, never contents. *)
        if not (List.for_all2 Bag.equal views base_views) then
          failwith "model_overlap changed view contents";
        { o_domains = d;
          o_completed_s = completed;
          o_speedup = base_completed /. completed })
      domain_counts
  in
  (scen, txns, base_completed, wall, overlap)

(* ---- merge groups: Figure 3 partitioned merge ---- *)

type group_point = {
  g_groups : int;
  g_domains : int;
  g_completed_s : float;
  g_wall_s : float;
}

(* Four independent view families over disjoint base pairs — the shape
   Figure 3 partitions. (Every named scenario's views share a relation,
   so they coarsen to a single group no matter what [merge_groups]
   asks for.) *)
let grouped_scenario ~families ~txns =
  let specs, views =
    List.split
      (List.init families (fun i ->
           let r = Printf.sprintf "R%d" i and s = Printf.sprintf "S%d" i in
           let rs = int_schema [ "A"; "B" ] and ss = int_schema [ "B"; "C" ] in
           let spec rel sch seed =
             { Source.Sources.source = Printf.sprintf "src%d" i;
               relation = rel;
               init =
                 Relation.with_contents (Relation.create sch)
                   (random_bag_wide seed 100 ~range:50) }
           in
           ( [ spec r rs (10 + i); spec s ss (20 + i) ],
             Query.View.make
               (Printf.sprintf "V%d" i)
               Query.Algebra.(join (base r) (base s)) )))
  in
  let rng = Sim.Rng.create 17 in
  let script =
    List.init txns (fun i ->
        [ Update.insert
            (Printf.sprintf "S%d" (i mod families))
            (Tuple.ints [ Sim.Rng.int rng 50; Sim.Rng.int rng 50 ]) ])
  in
  { Workload.Scenarios.name = Printf.sprintf "grouped-%d" families;
    specs = List.concat specs;
    views;
    script }

let merge_group_sweep () =
  let scen = grouped_scenario ~families:4 ~txns:16 in
  (* Load the merge the way benchmark P2 does — an expensive merge step
     is where partitioning it over groups (Figure 3) shows up in the
     completion time; at the default 0.5 ms it is never the bottleneck. *)
  let latencies = { System.default_latencies with merge = 0.02 } in
  let base = ref None in
  let points =
    List.concat_map
      (fun groups ->
        List.map
          (fun domains ->
            let t0 = Unix.gettimeofday () in
            let r =
              run_system ~merge:System.Auto ~merge_groups:groups ~latencies
                ~domains ~shards:domains ~model_overlap:false scen
            in
            let g_wall_s = Unix.gettimeofday () -. t0 in
            (match !base with
            | None -> base := Some (groups, Diffsmoke.signature r)
            | Some (g, s) when g = groups ->
              if not (Diffsmoke.signatures_equal s (Diffsmoke.signature r))
              then
                failwith
                  (Printf.sprintf
                     "merge groups=%d diverged across domain counts" groups)
            | Some _ -> base := Some (groups, Diffsmoke.signature r));
            { g_groups = groups;
              g_domains = domains;
              g_completed_s = r.System.metrics.Metrics.completed_at;
              g_wall_s })
          [ 1; 4 ])
      [ 1; 2; 4 ]
  in
  points

(* ---- reporting ---- *)

let write_json ~path ~kernel_rows:(n, kpoints) ~e2e:(scen, txns, base, wall, overlap)
    ~groups =
  let oc = open_out path in
  let kernel_json =
    List.map
      (fun p ->
        Printf.sprintf
          "    { \"domains\": %d, \"shards\": %d, \"eval_join_ms\": %.3f, \
           \"delta_join_ms\": %.3f }"
          p.k_domains p.k_shards p.eval_ms p.delta_ms)
      kpoints
  in
  let wall_json =
    List.map
      (fun p ->
        Printf.sprintf
          "      { \"domains\": %d, \"wall_s\": %.3f, \
           \"identical_to_sequential\": %b }"
          p.e_domains p.e_wall_s p.e_identical)
      wall
  in
  let overlap_json =
    List.map
      (fun p ->
        Printf.sprintf
          "      { \"domains\": %d, \"completed_s\": %.4f, \
           \"speedup_vs_sequential\": %.2f }"
          p.o_domains p.o_completed_s p.o_speedup)
      overlap
  in
  let headline =
    List.fold_left
      (fun acc p -> if p.o_domains = 4 then p.o_speedup else acc)
      1.0 overlap
  in
  let group_json =
    List.map
      (fun p ->
        Printf.sprintf
          "    { \"groups\": %d, \"domains\": %d, \"completed_s\": %.4f, \
           \"wall_s\": %.3f }"
          p.g_groups p.g_domains p.g_completed_s p.g_wall_s)
      groups
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe parallel\",\n\
    \  \"quick\": %b,\n\
    \  \"host_cores\": %d,\n\
    \  \"note\": \"domains is a real-execution knob only: it never moves \
     simulated time or RNG streams, so identical_to_sequential asserts \
     byte-identical commits and completion instants. model_overlap is the \
     latency-model switch charging LPT makespan over the domain lanes \
     instead of the strawman's sum; on a %d-core host wall-clock speedup \
     from real domains is not expected.\",\n\
    \  \"kernel_join_rows\": %d,\n\
    \  \"kernel_sweep\": [\n%s\n  ],\n\
    \  \"end_to_end\": {\n\
    \    \"workload\": \"%s\",\n\
    \    \"views\": %d,\n\
    \    \"transactions\": %d,\n\
    \    \"sequential_completed_s\": %.4f,\n\
    \    \"wall_clock\": [\n%s\n    ],\n\
    \    \"modeled_overlap\": [\n%s\n    ],\n\
    \    \"speedup_vs_sequential_at_4_domains\": %.2f\n\
    \  },\n\
    \  \"merge_group_sweep\": [\n%s\n  ]\n\
     }\n"
    (quick ()) host_cores host_cores n
    (String.concat ",\n" kernel_json)
    scen.Workload.Scenarios.name
    (List.length scen.Workload.Scenarios.views)
    txns base
    (String.concat ",\n" wall_json)
    (String.concat ",\n" overlap_json)
    headline
    (String.concat ",\n" group_json);
  close_out oc

let run () =
  Tables.section "P: multicore maintenance runtime (domains x shards x groups)";
  let ((n, kpoints) as kernel_rows) = kernel_sweep () in
  Tables.print
    ~title:(Printf.sprintf "kernel: %d-tuple join, domains x shards" n)
    ~header:[ "domains"; "shards"; "eval join"; "delta join" ]
    (List.map
       (fun p ->
         [ string_of_int p.k_domains; string_of_int p.k_shards;
           Printf.sprintf "%.2f ms" p.eval_ms;
           Printf.sprintf "%.2f ms" p.delta_ms ])
       kpoints);
  let ((_, _, base, wall, overlap) as e2e) = end_to_end () in
  Tables.print
    ~title:
      (Printf.sprintf
         "end to end: six-view fan-out, wall clock (host has %d core%s)"
         host_cores (if host_cores = 1 then "" else "s"))
    ~header:[ "domains"; "wall"; "identical trace" ]
    (List.map
       (fun p ->
         [ string_of_int p.e_domains;
           Printf.sprintf "%.2f s" p.e_wall_s;
           (if p.e_identical then "yes" else "NO") ])
       wall);
  Tables.print
    ~title:
      (Printf.sprintf
         "modeled overlap (simulated; sequential sum = %.3f s)" base)
    ~header:[ "domains"; "completed"; "speedup" ]
    (List.map
       (fun p ->
         [ string_of_int p.o_domains;
           Printf.sprintf "%.3f s" p.o_completed_s;
           Printf.sprintf "%.2fx" p.o_speedup ])
       overlap);
  let groups = merge_group_sweep () in
  Tables.print
    ~title:"partitioned merge (4 disjoint view families, loaded merge)"
    ~header:[ "groups"; "domains"; "completed"; "wall" ]
    (List.map
       (fun p ->
         [ string_of_int p.g_groups; string_of_int p.g_domains;
           Printf.sprintf "%.3f s" p.g_completed_s;
           Printf.sprintf "%.2f s" p.g_wall_s ])
       groups);
  write_json ~path:"BENCH_parallel.json" ~kernel_rows ~e2e ~groups;
  Printf.printf "wrote BENCH_parallel.json\n%!"

(* ---- @diff-smoke rows: domain counts are invisible ---- *)

let diff_rows =
  let generated =
    Workload.Generator.generate
      { Workload.Generator.default with
        seed = 11;
        n_relations = 4;
        n_views = 3;
        n_transactions = 20;
        initial_tuples = 6 }
  in
  let sequential cfg = { cfg with System.merge_kind = System.Sequential } in
  (* model_overlap must move timestamps only: contents stay, and the
     makespan over 4 lanes beats the strawman's sum. *)
  let overlap scen runs =
    let seq = List.hd runs in
    let ovl =
      System.run
        (sequential
           { (Diffsmoke.base ~domains:4 scen) with
             parallel =
               { Parallel.Config.domains = 4; shards = 4; model_overlap = true }
           })
    in
    let _, _, _, seq_views = Diffsmoke.signature seq
    and _, _, _, ovl_views = Diffsmoke.signature ovl in
    [ ( "model_overlap: contents identical, makespan < sum",
        List.for_all2 Bag.equal seq_views ovl_views
        && seq.System.metrics.Metrics.completed_at
           > ovl.System.metrics.Metrics.completed_at ) ]
  in
  [ { Diffsmoke.name = "domains: pipelined+reads";
      scenarios = [ generated ];
      domains = domain_counts;
      left = (fun cfg -> { cfg with System.reads = Some System.default_reads });
      right = None;
      extra = Diffsmoke.no_extra };
    { name = "domains: partitioned merge";
      scenarios = [ grouped_scenario ~families:4 ~txns:12 ];
      domains = domain_counts;
      left = (fun cfg -> { cfg with System.merge_groups = Some 3 });
      right = None;
      extra = Diffsmoke.no_extra };
    { name = "domains: sequential";
      scenarios = [ fanout_scenario ~rows:600 ~txns:4 ];
      domains = domain_counts;
      left = sequential;
      right = None;
      extra = overlap } ]
