(* Benchmark harness entry point. With no arguments every experiment runs
   in DESIGN.md order (paper traces, figures, performance studies, micro);
   individual experiments can be selected by name. *)

let experiments =
  [ ("table1", Paper_traces.table1);
    ("example2", Paper_traces.example2);
    ("example3", Paper_traces.example3);
    ("example4", Paper_traces.example4);
    ("example5", Paper_traces.example5);
    ("figure1", Experiments.figure1);
    ("figure2", Experiments.figure2);
    ("figure3", Experiments.figure3);
    ("freshness", Experiments.freshness);
    ("bottleneck", Experiments.bottleneck);
    ("batching", Experiments.batching);
    ("partition", Experiments.partition);
    ("multisource", Experiments.multisource);
    ("promptness", Experiments.promptness);
    ("relrouting", Experiments.relrouting);
    ("aggregates", Experiments.aggregates);
    ("optimizer", Experiments.optimizer);
    ("soak", Experiments.soak);
    ("resilience", Resilience.run);
    ("faultsoak", Resilience.faultsoak);
    ("crashsmoke", Resilience.crashsmoke);
    ("serve", Serving.run);
    ("servesmoke", Serving.servesmoke);
    ("parallel", Parallel_bench.run);
    ("shared", Shared_bench.run);
    ("dist", Dist_bench.run);
    ("distsmoke", Dist_bench.distsmoke);
    ("selfmaint", Selfmaint_bench.run);
    ("merge", Merge_bench.run);
    ( "diffsmoke",
      Diffsmoke.run
        (Parallel_bench.diff_rows @ Shared_bench.diff_rows
       @ Selfmaint_bench.diff_rows @ Merge_bench.diff_rows
       @ Dist_bench.diff_rows) );
    ("summary", Summary.run);
    ("micro", Micro.run) ]

let usage () =
  Printf.printf
    "usage: main.exe [-quick] [--check-regression] [experiment ...]\n\
     available experiments:\n";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, args = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  if List.mem "-quick" flags || List.mem "--quick" flags then Micro.quick := true;
  if List.mem "--check-regression" flags then Summary.check_regression := true;
  if List.mem "--help" flags || List.mem "-h" flags then usage ()
  else
    match args with
    | [] -> List.iter (fun (_, f) -> f ()) experiments
    | args ->
      let run name =
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.printf "unknown experiment: %s\n" name;
          usage ();
          exit 1
      in
      List.iter run args
