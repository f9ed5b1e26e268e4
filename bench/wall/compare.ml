(* [wall.exe compare BASE.json HEAD.json]: per (metric, workload), judge
   HEAD against BASE with the metric's bound from BENCHMARK.json (the
   catalogue's bound for metrics BENCHMARK.json does not list). *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type side = { value : float; q1 : float; q3 : float; values : float list }

(* Positive when [head] improves on [base]. Relative to the base median,
   or absolute when that is 0 (a zero failure ratio). *)
let gain ~better ~base ~head =
  let d = match better with Measure.Higher -> head -. base | Measure.Lower -> base -. head in
  if base = 0.0 then d else d /. Float.abs base

let spread s = if s.value = 0.0 then s.q3 -. s.q1 else (s.q3 -. s.q1) /. Float.abs s.value

(* The rule: a spread wider than the bound leaves the pair unresolved
   unless every HEAD value beats every BASE value; otherwise the change
   of medians against the bound decides. *)
let judge ~better ~bound base head =
  let beats h b = gain ~better ~base:b ~head:h > 0.0 in
  let dominates =
    head.values <> [] && base.values <> []
    && List.for_all (fun h -> List.for_all (beats h) base.values) head.values
  in
  let g = gain ~better ~base:base.value ~head:head.value in
  (* A zero bound (the failure ratio) admits no change at all, so the
     medians decide whatever the spread. *)
  if bound > 0.0 && Float.max (spread base) (spread head) > bound then
    if dominates then Better else Unresolved
  else if g < -.bound then Worse
  else if g > bound then Better
  else Same

let side_of j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  match (num "value", num "q1", num "q3") with
  | Some value, Some q1, Some q3 ->
    let values =
      match Json.member "values" j with
      | Some (Json.Arr l) -> List.filter_map Json.to_num l
      | _ -> []
    in
    Some { value; q1; q3; values }
  | _ -> None

let benchmark_bounds path =
  match Json.member "end_to_end" (Json.read_file path) with
  | Some (Json.Arr l) ->
    List.filter_map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.to_str,
               Option.bind (Json.member "bound" m) Json.to_num) with
        | Some n, Some b -> Some (n, b)
        | _ -> None)
      l
  | _ -> failwith (path ^ ": no end_to_end list")

let workloads j =
  match Json.member "workloads" j with Some (Json.Obj l) -> l | _ -> []

let run ~benchmark base_path head_path =
  let bounds = benchmark_bounds benchmark in
  let base = Json.read_file base_path and head = Json.read_file head_path in
  let worse = ref 0 in
  Printf.printf "%-16s %-24s %12s %12s %8s %8s  %s\n" "workload" "metric" "base" "head"
    "change" "bound" "verdict";
  List.iter
    (fun (wname, hw) ->
      match List.assoc_opt wname (workloads base) with
      | None -> Printf.printf "%-16s (absent from %s)\n" wname base_path
      | Some bw ->
        List.iter
          (fun (m : Measure.metric) ->
            let better = m.Measure.better in
            match m.Measure.bound with
            | Some catalogue_bound -> (
              let get w =
                Option.bind (Json.member "end_to_end" w) (fun e ->
                    Option.bind (Json.member m.Measure.name e) side_of)
              in
              match (get bw, get hw) with
              | Some b, Some h ->
                let bound =
                  Option.value ~default:catalogue_bound (List.assoc_opt m.Measure.name bounds)
                in
                let v = judge ~better ~bound b h in
                if v = Worse then incr worse;
                Printf.printf "%-16s %-24s %12.6g %12.6g %+7.2f%% %7.1f%%  %s\n" wname
                  m.Measure.name b.value h.value
                  (100.0 *. gain ~better ~base:b.value ~head:h.value)
                  (100.0 *. bound) (verdict_name v)
              | _ -> ())
            | None -> ())
          Measure.end_to_end)
    (workloads head);
  if !worse > 0 then begin
    Printf.printf "%d regression(s)\n" !worse;
    1
  end
  else 0
