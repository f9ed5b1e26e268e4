(* @diff-smoke: one differential harness for every claim that a knob, or
   a domain count, is observably invisible.

   A row names the claim, its scenarios and domain counts, a left and a
   right config transform, and an extra check. For each scenario the
   harness runs both sides at every domain count, each transform applied
   to the same base config (uniform 0.02 s arrivals, seed 9, one shard
   per domain), and requires every run to match the left run at the
   first domain count: commit and action counts, the simulated
   completion instant, every view's final contents, every served read
   and the consistency verdict. A row without a right side checks
   determinism across domain counts alone. The extra check receives the
   scenario and the compared side's runs (one per domain count, in
   order), and carries the row's non-differential claims. The rows live
   beside the benches whose scenarios they use; main.ml gathers them.
   Exits nonzero on any failure; `dune build @diff-smoke` runs it. *)

open Relational
open Whips

(* Everything a knob could perturb besides wall time and served reads:
   commit/action counts, the simulated completion instant, and the final
   contents of every view. *)
let signature (r : System.result) =
  let m = r.System.metrics in
  ( Atomic.get m.Metrics.commits,
    Atomic.get m.Metrics.actions_applied,
    m.Metrics.completed_at,
    List.map
      (fun v -> System.view_contents r (Query.View.name v))
      r.System.config.System.scenario.Workload.Scenarios.views )

let signatures_equal (c1, a1, t1, views1) (c2, a2, t2, views2) =
  c1 = c2 && a1 = a2 && t1 = t2
  && List.length views1 = List.length views2
  && List.for_all2 Bag.equal views1 views2

let read_signature (r : System.result) =
  match r.System.serving with
  | None -> []
  | Some s ->
    List.map
      (fun rec_ ->
        ( rec_.System.read_session,
          rec_.System.read_version,
          rec_.System.read_arrived,
          rec_.System.read_served,
          rec_.System.read_cache_hit,
          Bag.to_list rec_.System.read_result ))
      s.System.reads_served

let identical a b =
  signatures_equal (signature a) (signature b)
  && read_signature a = read_signature b
  && System.verdict a = System.verdict b

type row = {
  name : string;
  scenarios : Workload.Scenarios.t list;
  domains : int list;
  left : System.config -> System.config;
  right : (System.config -> System.config) option;
  extra : Workload.Scenarios.t -> System.result list -> (string * bool) list;
}

let no_extra _ _ = []

let base ~domains scen =
  { (System.default scen) with
    arrival = System.Uniform 0.02;
    parallel =
      { Parallel.Config.domains; shards = domains; model_overlap = false };
    seed = 9 }

let report row scen what ok =
  Printf.printf "diff-smoke %-26s %-14s %s: %s\n%!" row.name
    scen.Workload.Scenarios.name what
    (if ok then "ok" else "FAILED");
  ok

let check_scenario row scen =
  let sides =
    ("left", row.left)
    :: (match row.right with None -> [] | Some f -> [ ("right", f) ])
  in
  let runs =
    List.concat_map
      (fun domains ->
        List.map
          (fun (side, f) ->
            (side, domains, System.run (f (base ~domains scen))))
          sides)
      row.domains
  in
  let _, d0, reference = List.hd runs in
  let diffs =
    List.map
      (fun (side, domains, r) ->
        report row scen
          (Printf.sprintf "%s domains %d == left domains %d" side domains d0)
          (identical r reference))
      (List.tl runs)
  in
  let compared_side = match row.right with None -> "left" | Some _ -> "right" in
  let compared =
    List.filter_map
      (fun (side, _, r) -> if side = compared_side then Some r else None)
      runs
  in
  let extras =
    List.map
      (fun (what, ok) -> report row scen what ok)
      (row.extra scen compared)
  in
  List.for_all Fun.id (diffs @ extras)

let run rows () =
  Tables.section "diff-smoke: every knob-invisibility claim, one harness";
  let results =
    List.concat_map
      (fun row -> List.map (check_scenario row) row.scenarios)
      rows
  in
  let failed = List.length (List.filter not results) in
  if failed = 0 then
    Printf.printf "diff-smoke OK: %d rows, %d scenario checks\n%!"
      (List.length rows) (List.length results)
  else begin
    Printf.printf "diff-smoke FAILED: %d of %d scenario checks\n%!" failed
      (List.length results);
    exit 1
  end
