(* Soak runs, each fully determined by its seed: a small generated
   workload under a seeded random channel-fault plan (drops, duplicates,
   delay spikes on every channel) over acked links. The checker must
   report (at least) the level the configuration guarantees in the
   fault-free case. *)
open Whips

let random_faults =
  Workload.Fault_plan.random ~drop:0.15 ~duplicate:0.1 ~delay:0.1
    ~delay_by:0.05 "*"

let scenario rng =
  Workload.Generator.generate
    { Workload.Generator.default with
      seed = 1 + Sim.Rng.int rng 1000;
      n_views = 3;
      n_transactions = 8;
      initial_tuples = 4 }

let first_view (scen : Workload.Scenarios.t) =
  Query.View.name (List.hd scen.Workload.Scenarios.views)

let check name seed ~want cfg =
  match System.run cfg with
  | exception e ->
    Error (Printf.sprintf "%s %d: raised %s" name seed (Printexc.to_string e))
  | result ->
    let v = System.verdict result in
    if result.stuck then
      Error
        (Printf.sprintf "%s %d: stuck (%s)" name seed result.merge_algorithm)
    else if not (Consistency.Checker.at_least want v) then
      Error
        (Printf.sprintf "%s %d: wanted %s, got %s (%s, %d dropped)" name seed
           (Consistency.Checker.level_name want)
           Consistency.Checker.(level_name (level v))
           result.merge_algorithm
           (Atomic.get result.metrics.Metrics.msgs_dropped))
    else Ok ()

(* Vm kind x merge kind, sometimes a deterministic nth-drop on the first
   view's action lists, sometimes a crash of its manager. *)
let run seed =
  let rng = Sim.Rng.create (0x50AC + seed) in
  let scen = scenario rng in
  let vm_kind, merge_kind, want =
    match Sim.Rng.int rng 3 with
    | 0 -> (System.Complete_vm, System.Auto, Consistency.Checker.Complete)
    | 1 -> (System.Complete_vm, System.Force_pa, Consistency.Checker.Strong)
    | _ -> (System.Batching_vm, System.Auto, Consistency.Checker.Strong)
  in
  let plan =
    Workload.Fault_plan.union
      [ random_faults;
        (if Sim.Rng.bool rng then
           Workload.Fault_plan.nth ~channel:(first_view scen ^ "->merge")
             ~nth:(1 + Sim.Rng.int rng 3)
             Workload.Fault_plan.Drop
         else Workload.Fault_plan.empty) ]
  in
  let faults =
    if Sim.Rng.int rng 3 = 0 then
      [ System.Crash_vm
          { view = first_view scen;
            at_event = 1 + Sim.Rng.int rng 3;
            restart_after = 0.05 +. Sim.Rng.float rng 0.1 } ]
    else []
  in
  let cfg =
    { (System.default scen) with
      vm_kind;
      merge_kind;
      fault_plan = plan;
      faults;
      reliability = System.Acked Sim.Reliable.default_params;
      arrival = System.Poisson 80.0;
      seed = Sim.Rng.int rng 10_000 }
  in
  check "soak" seed ~want cfg

(* One process crash — merge, integrator, warehouse or the first view's
   manager — at one of its first six events, under Complete_vm and SPA:
   the run must drain and stay complete. *)
let run_crash seed =
  let rng = Sim.Rng.create (0x7A11 + seed) in
  let scen = scenario rng in
  let at_event = 1 + Sim.Rng.int rng 6
  and restart_after = 0.05 +. Sim.Rng.float rng 0.1 in
  let fault =
    match Sim.Rng.int rng 4 with
    | 0 -> System.Crash_merge { at_event; restart_after }
    | 1 -> System.Crash_integrator { at_event; restart_after }
    | 2 -> System.Crash_warehouse { at_event; restart_after }
    | _ -> System.Crash_vm { view = first_view scen; at_event; restart_after }
  in
  check "crash soak" seed ~want:Consistency.Checker.Complete
    { (System.default scen) with
      vm_kind = System.Complete_vm;
      fault_plan = random_faults;
      faults = [ fault ];
      reliability = System.Acked Sim.Reliable.default_params;
      arrival = System.Poisson 80.0;
      seed = Sim.Rng.int rng 10_000 }
