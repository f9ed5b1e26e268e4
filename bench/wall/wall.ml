(* Wall-clock benchmark of the warehouse pipeline.

     wall.exe [--workload NAME]... [--seed N] [--seconds S | --reps R]
              [--trace 0|1] [--json FILE] [--chrome-trace FILE]
     wall.exe --smoke
     wall.exe compare BASE.json HEAD.json [--benchmark BENCHMARK.json]

   Without [--seconds], every selected workload (default: all four) gets
   [--reps] timed repetitions (default 5), interleaved across workloads.
   With [--seconds S], each selected workload repeats until S seconds of
   repetitions have run. The last line of standard output is one JSON
   object: [correct], [attempted], [failed] and [metrics] — the
   BENCHMARK.json end-to-end metrics with [--trace 0], its per-layer
   metrics with [--trace 1] (the default; it also runs the traced
   replay). Exits 1 when a correctness check fails. *)

open Wallbench

let nproc () = Domain.recommended_domain_count ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all |> String.trim

(* The checked-out revision, read from .git without running git;
   "unknown" outside a git checkout. *)
let git_rev () =
  try
    let head = read_file ".git/HEAD" in
    match String.index_opt head ':' with
    | None -> head
    | Some _ ->
      let ref_ = String.trim (List.nth (String.split_on_char ':' head) 1) in
      let loose = Filename.concat ".git" ref_ in
      if Sys.file_exists loose then read_file loose
      else
        read_file ".git/packed-refs"
        |> String.split_on_char '\n'
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ sha; r ] when String.equal r ref_ -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
  with Sys_error _ | Failure _ | Not_found -> "unknown"

(* Lines of OCaml under lib/, reported next to the performance numbers. *)
let lib_lines () =
  let rec walk dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then acc + walk path
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
        then
          acc
          + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (read_file path)
          + 1
        else acc)
      0 (Sys.readdir dir)
  in
  try walk "lib" with Sys_error _ -> -1

let header ~seed =
  Json.Obj
    [ ("nproc", Json.Num (float_of_int (nproc ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("lib_lines", Json.Num (float_of_int (lib_lines ())));
      ("seed", Json.Num (float_of_int seed)) ]

(* ---- reporting ---- *)

let summary (value, values) =
  let q1, q3 = Measure.quartiles values in
  (value, q1, q3, List.length values)

let e2e_rows (st : Measure.state) =
  List.filter_map
    (fun (m : Measure.metric) ->
      if Measure.applies st m then Some (m, Measure.e2e st m.Measure.name) else None)
    Measure.end_to_end

let print_state (st : Measure.state) =
  Printf.printf "\n== %s  (N=%d, seed %d, %d reps, nproc %d) ==\n" st.Measure.w.Workloads.name
    st.Measure.n st.Measure.seed (List.length st.Measure.reps) (nproc ());
  Printf.printf "%-30s %14s %14s %14s %4s  %s\n" "end-to-end" "value" "q1" "q3" "n" "unit";
  List.iter
    (fun ((m : Measure.metric), values) ->
      let med, q1, q3, n = summary values in
      Printf.printf "%-30s %14.6g %14.6g %14.6g %4d  %s%s\n" m.Measure.name med q1 q3 n
        m.Measure.unit_ (if m.Measure.model then "  (model output, simulated)" else ""))
    (e2e_rows st);
  (match Measure.layer_values st with
  | [] -> ()
  | values ->
    Printf.printf "%-30s %14s\n" "per-layer (traced replay)" "value";
    List.iter
      (fun (m : Measure.metric) ->
        Printf.printf "%-30s %14.6g  %s\n" m.Measure.name
          (List.assoc m.Measure.name values) m.Measure.unit_)
      Measure.per_layer;
    match List.assoc_opt "trace.coverage_pct" values with
    | Some pct when pct < 95.0 ->
      Printf.printf "warning: span self-times cover only %.1f%% of the traced replay\n" pct
    | _ -> ());
  List.iter
    (fun (c : Measure.check) ->
      Printf.printf "  [%s] %s%s\n" (if c.Measure.ok then "ok" else "FAIL") c.Measure.check
        (if c.Measure.ok || c.Measure.detail = "" then "" else ": " ^ c.Measure.detail))
    st.Measure.checks

let result_json ~seed states =
  let metric_json (m : Measure.metric) values =
    let med, q1, q3, n = summary values in
    Json.Obj
      [ ("unit", Json.Str m.Measure.unit_);
        ("better", Json.Str (Measure.better_name m.Measure.better));
        ("bound", match m.Measure.bound with Some b -> Json.Num b | None -> Json.Null);
        ("model", Json.Bool m.Measure.model);
        ("value", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
        ("n", Json.Num (float_of_int n));
        ("values", Json.Arr (List.map (fun v -> Json.Num v) (snd values))) ]
  in
  Json.Obj
    [ ("header", header ~seed);
      ( "workloads",
        Json.Obj
          (List.map
             (fun (st : Measure.state) ->
               ( st.Measure.w.Workloads.name,
                 Json.Obj
                   [ ("n", Json.Num (float_of_int st.Measure.n));
                     ( "end_to_end",
                       Json.Obj
                         (List.map
                            (fun ((m : Measure.metric), values) ->
                              (m.Measure.name, metric_json m values))
                            (e2e_rows st)) );
                     ( "per_layer",
                       Json.Obj
                         (List.map
                            (fun (m : Measure.metric) ->
                              ( m.Measure.name,
                                Json.Obj
                                  [ ("unit", Json.Str m.Measure.unit_);
                                    ( "value",
                                      match List.assoc_opt m.Measure.name (Measure.layer_values st) with
                                      | Some v -> Json.Num v
                                      | None -> Json.Null ) ] ))
                            Measure.per_layer) );
                     ( "checks",
                       Json.Obj
                         (List.map
                            (fun (c : Measure.check) -> (c.Measure.check, Json.Bool c.Measure.ok))
                            st.Measure.checks) ) ] ))
             states)) ]

(* The contract line: BENCHMARK.json's metrics, keyed by name for one
   workload and by "workload/name" for several. *)
let final_line ~trace states =
  let one = match states with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun (st : Measure.state) ->
        let key name = if one then name else st.Measure.w.Workloads.name ^ "/" ^ name in
        let entry (m : Measure.metric) v =
          (key m.Measure.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Measure.unit_) ])
        in
        if trace then
          let values = Measure.layer_values st in
          List.filter_map
            (fun (m : Measure.metric) ->
              if m.Measure.contract then Option.map (entry m) (List.assoc_opt m.Measure.name values)
              else None)
            Measure.per_layer
        else
          List.filter_map
            (fun ((m : Measure.metric), values) ->
              if m.Measure.contract then Some (entry m (fst values)) else None)
            (e2e_rows st))
      states
  in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all Measure.correct states));
      ("attempted", Json.Num (float_of_int (List.fold_left (fun a st -> a + Measure.attempted st) 0 states)));
      ("failed", Json.Num (float_of_int (List.fold_left (fun a st -> a + Measure.failed st) 0 states)));
      ("metrics", Json.Obj metrics) ]

let write_file path json =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string json))

let chrome_trace ~seed states =
  let events =
    List.concat
      (List.mapi
         (fun pid (st : Measure.state) ->
           match st.Measure.traced with
           | None -> []
           | Some r ->
             let sp = r.Replay.spans in
             Json.Obj
               [ ("name", Json.Str "process_name"); ("ph", Json.Str "M");
                 ("pid", Json.Num (float_of_int pid));
                 ("args", Json.Obj [ ("name", Json.Str st.Measure.w.Workloads.name) ]) ]
             :: Span.chrome_events sp ~pid ~origin:(Span.first_start sp) ~requests:200)
         states)
  in
  Json.Obj
    [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ns");
      ("otherData", header ~seed) ]

(* ---- the run ---- *)

let usage =
  "wall.exe [--workload NAME]... [--seed N] [--seconds S | --reps R] [--trace 0|1] \
   [--json FILE] [--chrome-trace FILE] [--smoke]\n\
   wall.exe compare BASE.json HEAD.json [--benchmark BENCHMARK.json]"

let bench argv =
  let workloads = ref [] and seed = ref 1 and seconds = ref None and reps = ref 5
  and trace = ref 1 and smoke = ref false and json = ref None and chrome = ref None in
  let specs =
    [ ("--workload", Arg.String (fun w -> workloads := w :: !workloads), "NAME workload to run (repeatable)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S repeat each workload for S seconds");
      ("--reps", Arg.Set_int reps, "R interleaved repetitions per workload (default 5)");
      ("--trace", Arg.Set_int trace, "0|1 run the traced replay and report per-layer metrics (default 1)");
      ("--smoke", Arg.Set smoke, " 60 transactions per workload, one repetition, every check");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write every metric (input of compare)");
      ("--chrome-trace", Arg.String (fun f -> chrome := Some f),
       "FILE write the first 200 updates' replay spans as Chrome trace_event JSON") ]
  in
  Arg.parse_argv argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  let selected =
    match List.rev !workloads with
    | [] -> Workloads.all
    | names ->
      List.map
        (fun name ->
          match Workloads.find name with
          | Some w -> w
          | None -> raise (Arg.Bad ("unknown workload " ^ name)))
        names
  in
  let n w = if !smoke then 60 else w.Workloads.n in
  let states = List.map (fun w -> Measure.create w ~seed:!seed ~n:(n w)) selected in
  List.iter Measure.check_prefix states;
  let traced = !trace = 1 in
  (match !seconds with
  | Some budget ->
    List.iter
      (fun st ->
        let t0 = Span.now () in
        let rec loop last =
          let t = Span.now () in
          Measure.rep st ~traced;
          let took = Measure.seconds_since t in
          if Measure.seconds_since t0 +. Float.max took last <= budget then loop took
        in
        loop 0.0)
      states
  | None ->
    for _ = 1 to if !smoke then 1 else max 1 !reps do
      List.iter (Measure.rep ~traced) states
    done);
  Option.iter (fun f -> write_file f (result_json ~seed:!seed states)) !json;
  Option.iter (fun f -> write_file f (chrome_trace ~seed:!seed states)) !chrome;
  let ok = List.for_all Measure.correct states in
  (* The smoke pass is a test: one line on success, the full report on
     failure. *)
  if !smoke && ok then
    Printf.printf "wall smoke: %d workloads, every check passed\n" (List.length states)
  else begin
    List.iter print_state states;
    print_endline (Json.to_string (final_line ~trace:traced states))
  end;
  if ok then 0 else 1

let () =
  let argv = Sys.argv in
  let code =
    try
      if Array.length argv > 1 && argv.(1) = "compare" then begin
        let benchmark = ref "BENCHMARK.json" and files = ref [] in
        Arg.parse_argv ~current:(ref 1) argv
          [ ("--benchmark", Arg.Set_string benchmark, "FILE bounds file (default BENCHMARK.json)") ]
          (fun f -> files := f :: !files)
          usage;
        match List.rev !files with
        | [ base; head ] -> Compare.run ~benchmark:!benchmark base head
        | _ -> raise (Arg.Bad "compare takes BASE.json HEAD.json")
      end
      else bench argv
    with
    | Arg.Bad msg | Arg.Help msg ->
      prerr_endline msg;
      2
    | Json.Parse_error msg | Sys_error msg | Failure msg ->
      prerr_endline ("wall.exe: " ^ msg);
      2
  in
  exit code
