(* The multicore maintenance runtime. Three layers of evidence that
   [domains] is a pure real-execution knob:

   - pool semantics: ordered map, earliest-index exception propagation,
     reuse across submissions, deferred sequential spawn;
   - kernel equivalence: the hash-partitioned sharded join produces the
     same bag of counted tuples as the sequential kernel on random
     signed inputs (qcheck, above the shard threshold);
   - the determinism oracle: random full-system workloads run at
     domains 1/2/4 produce identical warehouse commits, served reads
     and consistency verdicts (qcheck). *)

open Relational

let case = Helpers.case

exception Boom of int

let pool_tests =
  [ case "map preserves input order" (fun () ->
        let pool = Parallel.Pool.get ~domains:4 in
        let xs = List.init 100 Fun.id in
        Alcotest.(check (list int))
          "squares in order"
          (List.map (fun x -> x * x) xs)
          (Parallel.Pool.map pool (fun x -> x * x) xs));
    case "map on a one-domain pool runs inline" (fun () ->
        let pool = Parallel.Pool.create ~domains:1 in
        Alcotest.(check int) "one lane" 1 (Parallel.Pool.domains pool);
        Alcotest.(check (list int))
          "still ordered" [ 2; 3; 4 ]
          (Parallel.Pool.map pool succ [ 1; 2; 3 ]);
        Parallel.Pool.shutdown pool);
    case "earliest-index exception wins" (fun () ->
        let pool = Parallel.Pool.get ~domains:4 in
        let f x = if x mod 3 = 0 then raise (Boom x) else x in
        Alcotest.check_raises "smallest failing index" (Boom 3) (fun () ->
            ignore (Parallel.Pool.map pool f [ 1; 2; 3; 4; 5; 6 ])));
    case "a failing batch still runs every task" (fun () ->
        let pool = Parallel.Pool.create ~domains:2 in
        let ran = Atomic.make 0 in
        (try
           ignore
             (Parallel.Pool.map pool
                (fun x ->
                  Atomic.incr ran;
                  if x = 0 then failwith "first")
                (List.init 20 Fun.id))
         with Failure _ -> ());
        Alcotest.(check int) "all 20 executed" 20 (Atomic.get ran);
        Parallel.Pool.shutdown pool);
    case "pool is reused across submissions" (fun () ->
        let pool = Parallel.Pool.create ~domains:3 in
        let before = Parallel.Pool.tasks_run pool in
        for _ = 1 to 5 do
          ignore (Parallel.Pool.map pool succ [ 1; 2; 3; 4 ])
        done;
        Alcotest.(check int)
          "20 tasks on the same domains" (before + 20)
          (Parallel.Pool.tasks_run pool);
        Parallel.Pool.shutdown pool);
    case "shutdown is idempotent, submission after it fails" (fun () ->
        let pool = Parallel.Pool.create ~domains:2 in
        Parallel.Pool.shutdown pool;
        Parallel.Pool.shutdown pool;
        Alcotest.check_raises "rejects work"
          (Invalid_argument "Parallel.Pool.map: pool is shut down")
          (fun () -> ignore (Parallel.Pool.map pool succ [ 1 ])));
    case "sequential spawn is deferred to await" (fun () ->
        let r = ref 0 in
        let fut = Parallel.Exec.spawn Parallel.Exec.sequential (fun () -> !r) in
        r := 42;
        Alcotest.(check int) "sees the later write" 42
          (Parallel.Exec.await fut);
        Alcotest.(check int) "await is idempotent" 42
          (Parallel.Exec.await fut));
    case "pooled spawn propagates the task's exception" (fun () ->
        let exec = Parallel.Exec.pooled (Parallel.Pool.get ~domains:4) in
        let fut = Parallel.Exec.spawn exec (fun () -> raise (Boom 7)) in
        Alcotest.check_raises "re-raised at await" (Boom 7) (fun () ->
            ignore (Parallel.Exec.await fut)));
    case "nested parallelism makes progress" (fun () ->
        (* A sharded-join-inside-a-future shape: futures that themselves
           map on the same pool; help-first scheduling must not deadlock
           even with a single worker domain. *)
        let pool = Parallel.Pool.get ~domains:2 in
        let exec = Parallel.Exec.pooled pool in
        let outer =
          Parallel.Exec.map exec
            (fun i ->
              List.fold_left ( + ) 0
                (Parallel.Exec.map exec (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
            [ 1; 2; 3; 4 ]
        in
        Alcotest.(check (list int))
          "nested sums" [ 36; 66; 96; 126 ] outer);
    case "makespan: lanes=1 is the sum, many lanes is the max" (fun () ->
        let samples = [ 3.0; 1.0; 4.0; 1.5 ] in
        Alcotest.(check (float 1e-9))
          "sum" 9.5
          (Parallel.makespan ~lanes:1 samples);
        Alcotest.(check (float 1e-9))
          "max" 4.0
          (Parallel.makespan ~lanes:8 samples);
        (* LPT on two lanes: 4 | 3, then 1.5 joins the 3-lane, 1 joins
           the 4-lane -> max(5, 4.5). *)
        Alcotest.(check (float 1e-9))
          "two lanes" 5.0
          (Parallel.makespan ~lanes:2 samples)) ]

(* ---- sharded join == sequential join (qcheck) ---- *)

(* Counted 2-column tuples joining on column 0; sizes push the total
   above [shard_threshold] so the pooled kernel actually shards. Output
   lists differ in order across shard counts, so compare as sorted
   multisets of (tuple, count) pairs. *)
let counted_gen =
  QCheck2.Gen.(
    list_size (int_range 500 800)
      (pair (Helpers.Gen.int_tuple ~arity:2 ~range:25) (int_range (-2) 3)))

let join_pos ~exec l r =
  Query.Compiled.join_counted_pos ~exec ~key_left:[| 0 |] ~key_right:[| 0 |]
    ~right_extra:[| 1 |] l r

let normalize pairs =
  List.sort
    (fun (t1, c1) (t2, c2) ->
      match Tuple.compare t1 t2 with 0 -> compare c1 c2 | n -> n)
    pairs

let sharded_join_tests =
  [ Helpers.qcheck ~count:30 "sharded join == sequential join"
      QCheck2.Gen.(pair counted_gen counted_gen)
      (fun (l, r) ->
        let reference =
          normalize (join_pos ~exec:Parallel.Exec.sequential l r)
        in
        List.for_all
          (fun shards ->
            let exec =
              Parallel.Exec.pooled ~shards (Parallel.Pool.get ~domains:4)
            in
            normalize (join_pos ~exec l r) = reference)
          [ 2; 4; 7 ]) ]

(* ---- coarsen bin-packing by weight ---- *)

let disjoint_view i =
  Query.View.make
    (Printf.sprintf "V%d" i)
    Query.Algebra.(base (Printf.sprintf "R%d" i))

let coarsen_tests =
  [ case "coarsen separates heavy views" (fun () ->
        (* Two heavy and two light singleton groups into two bins: any
           heaviest-first greedy puts the heavy pair apart. *)
        let weights = [ (0, 10); (1, 10); (2, 1); (3, 1) ] in
        let fine = List.map (fun (i, _) -> [ disjoint_view i ]) weights in
        let weight v =
          List.assoc
            (Scanf.sscanf (Query.View.name v) "V%d" Fun.id)
            weights
        in
        let groups = Mvc.Partition.coarsen ~weight ~max_groups:2 fine in
        Alcotest.(check int) "two groups" 2 (List.length groups);
        List.iter
          (fun g ->
            Alcotest.(check int)
              "one heavy view per group" 1
              (List.length
                 (List.filter (fun v -> weight v >= 10) g)))
          groups);
    Helpers.qcheck ~count:200 "coarsen never exceeds twice the ideal load"
      QCheck2.Gen.(
        pair (int_range 1 4)
          (list_size (int_range 1 12) (int_range 0 20)))
      (fun (k, weights) ->
        let fine = List.mapi (fun i _ -> [ disjoint_view i ]) weights in
        let weight v =
          List.nth weights (Scanf.sscanf (Query.View.name v) "V%d" Fun.id)
        in
        let groups = Mvc.Partition.coarsen ~weight ~max_groups:k fine in
        let load g = List.fold_left (fun a v -> a + weight v) 0 g in
        let total = List.fold_left ( + ) 0 weights in
        let heaviest = List.fold_left max 0 weights in
        (* Greedy LPT bound: no bin exceeds ideal share + one item. *)
        List.length groups <= k
        && List.for_all
             (fun g -> load g <= ((total + k - 1) / k) + heaviest)
             groups
        && List.fold_left (fun a g -> a + load g) 0 groups = total) ]

(* ---- the determinism oracle (qcheck over whole workloads) ---- *)

let scenario_gen =
  QCheck2.Gen.(
    int_range 0 10_000 >>= fun seed ->
    int_range 2 4 >>= fun n_views ->
    int_range 8 16 >>= fun n_transactions ->
    return
      (Workload.Generator.generate
         { Workload.Generator.default with
           seed;
           n_relations = 3;
           n_views;
           n_transactions;
           initial_tuples = 5 }))

let run_at scen ~domains =
  Whips.System.run
    { (Whips.System.default scen) with
      arrival = Whips.System.Uniform 0.02;
      reads = Some Whips.System.default_reads;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      seed = 3 }

(* Every externally visible output: commit and action counts, the final
   simulated instant, final view contents, the full served-read log and
   the oracle verdict. *)
let observation (r : Whips.System.result) =
  let m = r.Whips.System.metrics in
  let reads =
    match r.Whips.System.serving with
    | None -> []
    | Some s ->
      List.map
        (fun rec_ ->
          ( rec_.Whips.System.read_session,
            rec_.Whips.System.read_version,
            rec_.Whips.System.read_served,
            rec_.Whips.System.read_cache_hit,
            Bag.to_list rec_.Whips.System.read_result ))
        s.Whips.System.reads_served
  in
  ( ( Atomic.get m.Whips.Metrics.commits,
      Atomic.get m.Whips.Metrics.actions_applied,
      m.Whips.Metrics.completed_at ),
    List.map
      (fun v ->
        Bag.to_list (Whips.System.view_contents r (Query.View.name v)))
      r.Whips.System.config.Whips.System.scenario.Workload.Scenarios.views,
    reads,
    Whips.System.verdict r )

let oracle_tests =
  [ Helpers.qcheck ~count:12 "domains 1/2/4 observe identical runs"
      scenario_gen
      (fun scen ->
        let reference = observation (run_at scen ~domains:1) in
        List.for_all
          (fun d -> observation (run_at scen ~domains:d) = reference)
          [ 2; 4 ]) ]

(* Pool domains missing on one fresh relation's index memo: each key
   position is installed once and its build counted once, however many
   domains raced to build it. *)
let memo_tests =
  [ case "racing index builds install and count one per key position"
      (fun () ->
        let exec = Parallel.Exec.pooled (Parallel.Pool.get ~domains:4) in
        let base =
          Helpers.rel
            (Helpers.int_schema [ "a"; "b"; "c"; "d" ])
            (List.init 2000 (fun i -> [ i; i mod 7; i mod 11; i mod 13 ]))
        in
        let keys = [ [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |]; [| 1; 2 |] ] in
        let k = List.length keys in
        for round = 1 to 40 do
          (* A fresh version: its memos start empty. *)
          let r = Relation.insert (Tuple.ints [ -round; 0; 0; 0 ]) base in
          let builds0 = Relation.index_builds () in
          List.concat (List.init 4 (fun _ -> keys))
          |> List.map (fun key_pos ->
                 Parallel.Exec.spawn exec (fun () ->
                     ignore (Relation.index r ~key_pos)))
          |> List.iter Parallel.Exec.await;
          Alcotest.(check int)
            (Printf.sprintf "round %d: one entry per key position" round)
            k
            (List.length (Relation.index_stats r));
          Alcotest.(check int)
            (Printf.sprintf "round %d: one build per key position" round)
            k
            (Relation.index_builds () - builds0)
        done) ]

let tests =
  pool_tests @ sharded_join_tests @ coarsen_tests @ oracle_tests @ memo_tests
