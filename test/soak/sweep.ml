(* Replays both soak runs over a seed range and prints every failure.
   Usage: sweep.exe FIRST LAST. Exits 1 when any run fails. *)
let () =
  match Array.to_list Sys.argv with
  | [ _; first; last ] ->
    let first = int_of_string first and last = int_of_string last in
    let failures = ref 0 in
    let report = function
      | Ok () -> ()
      | Error msg ->
        incr failures;
        print_endline msg
    in
    for seed = first to last do
      report (Soak.run seed);
      report (Soak.run_crash seed)
    done;
    Printf.printf "soak sweep: %d failures over seeds %d-%d (%d runs)\n"
      !failures first last
      (2 * (last - first + 1));
    if !failures > 0 then exit 1
  | _ ->
    prerr_endline "usage: sweep.exe FIRST LAST";
    exit 2
