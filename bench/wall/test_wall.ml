(* Unit tests for the benchmark's own arithmetic: span self times,
   quartiles, the compare rule and the JSON round trip. *)

open Wallbench

let self_times spans =
  let start = Array.of_list (List.map (fun (s, _, _) -> s) spans)
  and stop = Array.of_list (List.map (fun (_, e, _) -> e) spans)
  and parent = Array.of_list (List.map (fun (_, _, p) -> p) spans) in
  Array.to_list (Span.self_times ~start ~stop ~parent)

let nested () =
  (* root [0,100] > a [10,30], b [40,90] > c [50,60] *)
  let self = self_times [ (0, 100, -1); (10, 30, 0); (40, 90, 0); (50, 60, 2) ] in
  Alcotest.(check (list int)) "self times" [ 30; 20; 40; 10 ] self;
  Alcotest.(check int) "self times sum to the root's duration" 100
    (List.fold_left ( + ) 0 self)

let overlapping () =
  (* Children [10,40] and [30,50] cover [10,50]; a child poking out of
     its parent counts only inside it. *)
  Alcotest.(check (list int)) "union of children"
    [ 60; 30; 20 ] (self_times [ (0, 100, -1); (10, 40, 0); (30, 50, 0) ]);
  Alcotest.(check (list int)) "clipped child"
    [ 10; 15 ] (self_times [ (0, 20, -1); (10, 25, 0) ])

let recorder () =
  let sp = Span.create ~enabled:true () in
  let outer = Span.id sp "outer" and inner = Span.id sp "inner" in
  let v =
    Span.with_ sp outer (fun () ->
        Span.with_ sp inner (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
        Span.with_ sp inner (fun () -> 7))
  in
  Alcotest.(check int) "value passes through" 7 v;
  let start, stop, parent = Span.spans sp in
  Alcotest.(check (array int)) "parents" [| -1; 0; 0 |] parent;
  let self = Span.self_times ~start ~stop ~parent in
  Alcotest.(check int) "self times sum to the outer span"
    (stop.(0) - start.(0)) (Array.fold_left ( + ) 0 self);
  match Span.totals sp with
  | [ ("outer", _, 1); ("inner", _, 2) ] -> ()
  | _ -> Alcotest.fail "totals by name"

let disabled () =
  let sp = Span.create ~enabled:false () in
  let id = Span.id sp "x" in
  Alcotest.(check int) "runs the call" 3 (Span.with_ sp id (fun () -> 3));
  let start, _, _ = Span.spans sp in
  Alcotest.(check int) "records nothing" 0 (Array.length start)

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Measure.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5
    (Measure.median (List.init 10 (fun i -> float_of_int (i + 1))))

let side values =
  let q1, q3 = Measure.quartiles values in
  { Compare.value = Measure.median values; q1; q3; values }

let compare_rule () =
  let judge better bound b h =
    Compare.verdict_name (Compare.judge ~better ~bound (side b) (side h))
  in
  let tight x = [ x *. 0.995; x; x *. 1.005 ] in
  Alcotest.(check string) "within bound" "same"
    (judge Measure.Higher 0.1 (tight 100.0) (tight 95.0));
  Alcotest.(check string) "throughput drop" "worse"
    (judge Measure.Higher 0.1 (tight 100.0) (tight 80.0));
  Alcotest.(check string) "latency drop" "better"
    (judge Measure.Lower 0.1 (tight 100.0) (tight 80.0));
  Alcotest.(check string) "wide spread" "unresolved"
    (judge Measure.Lower 0.1 [ 50.0; 100.0; 150.0 ] [ 60.0; 110.0; 160.0 ]);
  Alcotest.(check string) "wide spread, every head rep wins" "better"
    (judge Measure.Lower 0.1 [ 150.0; 200.0; 300.0 ] [ 50.0; 100.0; 140.0 ]);
  Alcotest.(check string) "any new failure" "worse"
    (judge Measure.Lower 0.0 [ 0.0; 0.0 ] [ 0.0; 0.001 ])

let json_round_trip () =
  let v =
    Json.Obj
      [ ("a", Json.Arr [ Json.Num 1.0; Json.Num 0.1; Json.Num (-2.5e-7) ]);
        ("b", Json.Str "q\"uote\\ \n"); ("c", Json.Bool true); ("d", Json.Null) ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.parse (Json.to_string v) = v)

(* BENCHMARK.json lists exactly the catalogue's contract metrics, with
   the same units, directions and bounds. *)
let benchmark_json path () =
  let j = Json.read_file path in
  let entries key =
    match Json.member key j with
    | Some (Json.Arr l) ->
      List.map
        (fun e ->
          let str k = Option.bind (Json.member k e) Json.to_str in
          (str "name", str "unit", str "better", Option.bind (Json.member "bound" e) Json.to_num))
        l
    | _ -> Alcotest.failf "%s: no %s list" path key
  in
  let expected metrics =
    List.filter_map
      (fun (m : Measure.metric) ->
        if m.Measure.contract then
          Some
            ( Some m.Measure.name, Some m.Measure.unit_,
              Some (Measure.better_name m.Measure.better), m.Measure.bound )
        else None)
      metrics
  in
  let show (n, u, b, bound) =
    Printf.sprintf "%s %s %s %s" (Option.value ~default:"?" n) (Option.value ~default:"?" u)
      (Option.value ~default:"?" b)
      (match bound with Some f -> string_of_float f | None -> "-")
  in
  let same key metrics =
    Alcotest.(check (list string)) key
      (List.map show (expected metrics))
      (List.map show (entries key))
  in
  same "end_to_end" Measure.end_to_end;
  same "per_layer" Measure.per_layer;
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (match Json.member "workloads" j with
    | Some (Json.Arr l) ->
      List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_str) l
    | _ -> [])

let () =
  let benchmark = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "wall-bench"
    [ ( "span",
        [ Alcotest.test_case "self time on nested spans" `Quick nested;
          Alcotest.test_case "overlapping and clipped children" `Quick overlapping;
          Alcotest.test_case "recorder nesting" `Quick recorder;
          Alcotest.test_case "disabled recorder" `Quick disabled ] );
      ( "stats",
        [ Alcotest.test_case "quartiles match statistics.quantiles" `Quick quartiles;
          Alcotest.test_case "compare verdicts" `Quick compare_rule ] );
      ("json", [ Alcotest.test_case "round trip" `Quick json_round_trip ]);
      ( "benchmark",
        [ Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            (benchmark_json benchmark) ] ) ]
