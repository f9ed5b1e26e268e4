let case = Helpers.case

let rng_tests =
  [ case "same seed, same stream" (fun () ->
        let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
        let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
        Alcotest.(check (list int)) "equal" xs ys);
    case "different seeds differ" (fun () ->
        let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
        let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000000) in
        let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000000) in
        Alcotest.(check bool) "differ" true (xs <> ys));
    case "int respects bound" (fun () ->
        let r = Sim.Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Sim.Rng.int r 17 in
          Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
        done);
    case "int rejects nonpositive bound" (fun () ->
        Alcotest.(check bool) "raises" true
          (match Sim.Rng.int (Sim.Rng.create 1) 0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "int_range inclusive" (fun () ->
        let r = Sim.Rng.create 5 in
        let seen = Hashtbl.create 8 in
        for _ = 1 to 500 do
          let x = Sim.Rng.int_range r 2 4 in
          Hashtbl.replace seen x ();
          Alcotest.(check bool) "in [2,4]" true (x >= 2 && x <= 4)
        done;
        Alcotest.(check int) "all three hit" 3 (Hashtbl.length seen));
    case "float in [0,bound)" (fun () ->
        let r = Sim.Rng.create 5 in
        for _ = 1 to 1000 do
          let x = Sim.Rng.float r 2.5 in
          Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
        done);
    case "exponential is positive with roughly the right mean" (fun () ->
        let r = Sim.Rng.create 11 in
        let n = 5000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          let x = Sim.Rng.exponential r ~mean:2.0 in
          Alcotest.(check bool) "positive" true (x > 0.0);
          total := !total +. x
        done;
        let mean = !total /. float_of_int n in
        Alcotest.(check bool) "mean near 2" true (mean > 1.8 && mean < 2.2));
    case "split decouples streams" (fun () ->
        let a = Sim.Rng.create 9 in
        let child = Sim.Rng.split a in
        (* Drawing from the child must not change the parent's future. *)
        let b = Sim.Rng.create 9 in
        let _child_b = Sim.Rng.split b in
        let _ = List.init 10 (fun _ -> Sim.Rng.int child 100) in
        Alcotest.(check int) "parent unaffected" (Sim.Rng.int b 1000000)
          (Sim.Rng.int a 1000000));
    case "shuffle is a permutation" (fun () ->
        let r = Sim.Rng.create 13 in
        let l = [ 1; 2; 3; 4; 5; 6 ] in
        let s = Sim.Rng.shuffle r l in
        Alcotest.(check (list int)) "same elements" l (List.sort compare s));
    case "pick returns a member" (fun () ->
        let r = Sim.Rng.create 17 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "member" true
            (List.mem (Sim.Rng.pick r [ "a"; "b"; "c" ]) [ "a"; "b"; "c" ])
        done) ]

let engine_tests =
  [ case "events run in time order" (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        Sim.Engine.schedule_at e 2.0 (fun () -> log := 2 :: !log);
        Sim.Engine.schedule_at e 1.0 (fun () -> log := 1 :: !log);
        Sim.Engine.schedule_at e 3.0 (fun () -> log := 3 :: !log);
        Sim.Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log));
    case "ties break by insertion order" (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        Sim.Engine.schedule_at e 1.0 (fun () -> log := "a" :: !log);
        Sim.Engine.schedule_at e 1.0 (fun () -> log := "b" :: !log);
        Sim.Engine.run e;
        Alcotest.(check (list string)) "fifo" [ "a"; "b" ] (List.rev !log));
    case "clock advances to event time" (fun () ->
        let e = Sim.Engine.create () in
        Sim.Engine.schedule_at e 5.0 (fun () -> ());
        Sim.Engine.run e;
        Alcotest.(check (float 1e-9)) "now" 5.0 (Sim.Engine.now e));
    case "scheduling in the past raises" (fun () ->
        let e = Sim.Engine.create () in
        Sim.Engine.schedule_at e 5.0 (fun () -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "raises" true
          (match Sim.Engine.schedule_at e 1.0 (fun () -> ()) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "schedule_after clamps negative delay" (fun () ->
        let e = Sim.Engine.create () in
        let ran = ref false in
        Sim.Engine.schedule_after e (-1.0) (fun () -> ran := true);
        Sim.Engine.run e;
        Alcotest.(check bool) "ran" true !ran);
    case "handlers can schedule more events" (fun () ->
        let e = Sim.Engine.create () in
        let count = ref 0 in
        let rec tick n =
          if n > 0 then begin
            incr count;
            Sim.Engine.schedule_after e 1.0 (fun () -> tick (n - 1))
          end
        in
        Sim.Engine.schedule_after e 0.0 (fun () -> tick 5);
        Sim.Engine.run e;
        Alcotest.(check int) "5 ticks" 5 !count;
        Alcotest.(check (float 1e-9)) "time" 5.0 (Sim.Engine.now e));
    case "run ~until stops before later events" (fun () ->
        let e = Sim.Engine.create () in
        let ran = ref false in
        Sim.Engine.schedule_at e 10.0 (fun () -> ran := true);
        Sim.Engine.run ~until:5.0 e;
        Alcotest.(check bool) "not yet" false !ran;
        Alcotest.(check (float 1e-9)) "clock at until" 5.0 (Sim.Engine.now e);
        Sim.Engine.run e;
        Alcotest.(check bool) "eventually" true !ran);
    case "pending and processed counters" (fun () ->
        let e = Sim.Engine.create () in
        Sim.Engine.schedule_at e 1.0 (fun () -> ());
        Sim.Engine.schedule_at e 2.0 (fun () -> ());
        Alcotest.(check int) "pending 2" 2 (Sim.Engine.pending e);
        Sim.Engine.run e;
        Alcotest.(check int) "pending 0" 0 (Sim.Engine.pending e);
        Alcotest.(check int) "processed 2" 2 (Sim.Engine.processed e));
    case "step returns false on empty queue" (fun () ->
        Alcotest.(check bool) "empty" false (Sim.Engine.step (Sim.Engine.create ()))) ]

let channel_tests =
  [ case "FIFO even with shrinking latencies" (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        let latencies = ref [ 1.0; 0.1 ] in
        let next_latency () =
          match !latencies with
          | l :: rest ->
            latencies := rest;
            l
          | [] -> 0.0
        in
        let ch =
          Sim.Channel.create e ~latency:next_latency (fun m -> log := m :: !log)
        in
        Sim.Channel.send ch "first";
        Sim.Channel.send ch "second";
        Sim.Engine.run e;
        Alcotest.(check (list string)) "order preserved" [ "first"; "second" ]
          (List.rev !log));
    case "latency delays delivery" (fun () ->
        let e = Sim.Engine.create () in
        let arrival = ref 0.0 in
        let ch =
          Sim.Channel.create e ~latency:(fun () -> 2.5) (fun () ->
              arrival := Sim.Engine.now e)
        in
        Sim.Channel.send ch ();
        Sim.Engine.run e;
        Alcotest.(check (float 1e-9)) "at 2.5" 2.5 !arrival);
    case "counters" (fun () ->
        let e = Sim.Engine.create () in
        let ch = Sim.Channel.create e ~latency:(fun () -> 1.0) (fun () -> ()) in
        Sim.Channel.send ch ();
        Sim.Channel.send ch ();
        Alcotest.(check int) "sent" 2 (Sim.Channel.sent ch);
        Alcotest.(check int) "in flight" 2 (Sim.Channel.in_flight ch);
        Sim.Engine.run e;
        Alcotest.(check int) "delivered" 2 (Sim.Channel.delivered ch);
        Alcotest.(check int) "drained" 0 (Sim.Channel.in_flight ch));
    case "negative latency clamped" (fun () ->
        let e = Sim.Engine.create () in
        let delivered = ref false in
        let ch =
          Sim.Channel.create e ~latency:(fun () -> -5.0) (fun () ->
              delivered := true)
        in
        Sim.Channel.send ch ();
        Sim.Engine.run e;
        Alcotest.(check bool) "ok" true !delivered) ]

let stats_tests =
  [ case "summary mean/min/max" (fun () ->
        let s = Sim.Stats.Summary.create () in
        List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
        Alcotest.(check (float 1e-9)) "mean" 2.5 (Sim.Stats.Summary.mean s);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Stats.Summary.min s);
        Alcotest.(check (float 1e-9)) "max" 4.0 (Sim.Stats.Summary.max s);
        Alcotest.(check int) "count" 4 (Sim.Stats.Summary.count s));
    case "summary stddev" (fun () ->
        let s = Sim.Stats.Summary.create () in
        List.iter (Sim.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
        Alcotest.(check bool) "sample sd ~ 2.138" true
          (abs_float (Sim.Stats.Summary.stddev s -. 2.13808993) < 1e-6));
    case "empty summary" (fun () ->
        let s = Sim.Stats.Summary.create () in
        Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Sim.Stats.Summary.mean s);
        Alcotest.(check bool) "nan percentile" true
          (Float.is_nan (Sim.Stats.Summary.percentile s 50.0)));
    case "percentiles nearest-rank" (fun () ->
        let s = Sim.Stats.Summary.create () in
        List.iter (Sim.Stats.Summary.add s) (List.init 100 (fun i -> float_of_int (i + 1)));
        Alcotest.(check (float 1e-9)) "p50" 50.0 (Sim.Stats.Summary.percentile s 50.0);
        Alcotest.(check (float 1e-9)) "p95" 95.0 (Sim.Stats.Summary.percentile s 95.0);
        Alcotest.(check (float 1e-9)) "p100" 100.0 (Sim.Stats.Summary.percentile s 100.0));
    case "percentile after incremental adds" (fun () ->
        let s = Sim.Stats.Summary.create () in
        Sim.Stats.Summary.add s 10.0;
        Alcotest.(check (float 1e-9)) "p50 one sample" 10.0
          (Sim.Stats.Summary.percentile s 50.0);
        Sim.Stats.Summary.add s 20.0;
        Alcotest.(check (float 1e-9)) "cache invalidated" 20.0
          (Sim.Stats.Summary.percentile s 100.0));
    case "counter" (fun () ->
        let c = Sim.Stats.Counter.create () in
        Sim.Stats.Counter.incr c;
        Sim.Stats.Counter.incr ~by:4 c;
        Alcotest.(check int) "5" 5 (Sim.Stats.Counter.value c));
    case "time-weighted average" (fun () ->
        let tw = Sim.Stats.Time_weighted.create ~now:0.0 ~initial:0.0 in
        Sim.Stats.Time_weighted.observe tw ~now:1.0 10.0;
        Sim.Stats.Time_weighted.observe tw ~now:3.0 0.0;
        (* 0 for 1s, 10 for 2s, 0 for 1s = 20/4 *)
        Alcotest.(check (float 1e-9)) "avg" 5.0
          (Sim.Stats.Time_weighted.average tw ~now:4.0);
        Alcotest.(check (float 1e-9)) "max" 10.0 (Sim.Stats.Time_weighted.maximum tw));
    case "trace records in order" (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.record tr "a";
        Sim.Trace.recordf tr "b%d" 2;
        Alcotest.(check (list string)) "events" [ "a"; "b2" ] (Sim.Trace.events tr);
        Sim.Trace.clear tr;
        Alcotest.(check int) "cleared" 0 (Sim.Trace.length tr)) ]

let fault_tests =
  [ case "fault hook sees 1-based send indexes" (fun () ->
        let engine = Sim.Engine.create () in
        let seen = ref [] in
        let ch =
          Sim.Channel.create engine ~latency:(fun () -> 0.1) (fun _ -> ())
        in
        Sim.Channel.set_fault ch
          (Some
             (fun i ->
               seen := i :: !seen;
               Sim.Channel.Deliver));
        Sim.Channel.send ch "a";
        Sim.Channel.send ch "b";
        Alcotest.(check (list int)) "indexes" [ 1; 2 ] (List.rev !seen));
    case "drop keeps sent/dropped/in_flight truthful" (fun () ->
        let engine = Sim.Engine.create () in
        let got = ref [] in
        let ch =
          Sim.Channel.create engine ~latency:(fun () -> 0.1) (fun m ->
              got := m :: !got)
        in
        Sim.Channel.set_fault ch
          (Some (fun i -> if i = 2 then Sim.Channel.Drop else Sim.Channel.Deliver));
        List.iter (Sim.Channel.send ch) [ "a"; "b"; "c" ];
        Alcotest.(check int) "sent counts the lost message" 3
          (Sim.Channel.sent ch);
        Alcotest.(check int) "dropped" 1 (Sim.Channel.dropped ch);
        Alcotest.(check int) "in flight before run" 2 (Sim.Channel.in_flight ch);
        Sim.Engine.run engine;
        Alcotest.(check int) "in flight after run" 0 (Sim.Channel.in_flight ch);
        Alcotest.(check (list string)) "b lost" [ "a"; "c" ] (List.rev !got));
    case "duplicate delivers twice and counts once" (fun () ->
        let engine = Sim.Engine.create () in
        let got = ref [] in
        let ch =
          Sim.Channel.create engine ~latency:(fun () -> 0.1) (fun m ->
              got := m :: !got)
        in
        Sim.Channel.set_fault ch
          (Some
             (fun i ->
               if i = 1 then Sim.Channel.Duplicate else Sim.Channel.Deliver));
        Sim.Channel.send ch "a";
        Sim.Channel.send ch "b";
        Sim.Engine.run engine;
        Alcotest.(check (list string)) "aab" [ "a"; "a"; "b" ] (List.rev !got);
        Alcotest.(check int) "duplicated" 1 (Sim.Channel.duplicated ch);
        Alcotest.(check int) "delivered" 3 (Sim.Channel.delivered ch);
        Alcotest.(check int) "drained" 0 (Sim.Channel.in_flight ch));
    case "delay postpones but preserves FIFO for later sends" (fun () ->
        let engine = Sim.Engine.create () in
        let got = ref [] in
        let ch =
          Sim.Channel.create engine ~latency:(fun () -> 0.1) (fun m ->
              got := (Sim.Engine.now engine, m) :: !got)
        in
        Sim.Channel.set_fault ch
          (Some
             (fun i ->
               if i = 1 then Sim.Channel.Delay 1.0 else Sim.Channel.Deliver));
        Sim.Channel.send ch "slow";
        Sim.Channel.send ch "fast";
        Sim.Engine.run engine;
        match List.rev !got with
        | [ (t1, "slow"); (t2, "fast") ] ->
          Alcotest.(check (float 1e-9)) "delayed" 1.1 t1;
          Alcotest.(check bool) "fast clamped behind slow" true (t2 >= t1)
        | _ -> Alcotest.fail "unexpected delivery order") ]

(* The ARQ layer: exactly-once in-order delivery over faulty channels. *)
let reliable_tests =
  let make ?params () =
    let engine = Sim.Engine.create () in
    let got = ref [] in
    let rl =
      Sim.Reliable.create engine ?params ~rng:(Sim.Rng.create 42)
        ~latency:(fun () -> 0.01)
        (fun m -> got := m :: !got)
    in
    (engine, rl, got)
  in
  [ case "in-order exactly-once under drops" (fun () ->
        let engine, rl, got = make () in
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some
             (fun i ->
               if i = 2 || i = 4 then Sim.Channel.Drop
               else Sim.Channel.Deliver));
        List.iter (Sim.Reliable.send rl) [ 1; 2; 3; 4; 5 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "payloads" [ 1; 2; 3; 4; 5 ]
          (List.rev !got);
        Alcotest.(check bool) "quiescent" true (Sim.Reliable.quiescent rl);
        let s = Sim.Reliable.stats rl in
        Alcotest.(check bool) "retransmitted" true (s.retransmits > 0));
    case "receiver drops duplicated frames" (fun () ->
        let engine, rl, got = make () in
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some
             (fun i ->
               if i = 1 then Sim.Channel.Duplicate else Sim.Channel.Deliver));
        List.iter (Sim.Reliable.send rl) [ 1; 2 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "exactly once" [ 1; 2 ] (List.rev !got);
        let s = Sim.Reliable.stats rl in
        Alcotest.(check bool) "dup discarded" true (s.dups_dropped >= 1));
    case "lost acks cause retransmits, not duplicate delivery" (fun () ->
        let engine, rl, got = make () in
        Sim.Channel.set_fault
          (Sim.Reliable.ctrl_channel rl)
          (Some
             (fun i -> if i <= 2 then Sim.Channel.Drop else Sim.Channel.Deliver));
        List.iter (Sim.Reliable.send rl) [ 1; 2; 3 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "exactly once" [ 1; 2; 3 ] (List.rev !got);
        Alcotest.(check bool) "quiescent" true (Sim.Reliable.quiescent rl));
    case "gap triggers a nack before any timeout" (fun () ->
        let engine, rl, got = make () in
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some (fun i -> if i = 1 then Sim.Channel.Drop else Sim.Channel.Deliver));
        Sim.Reliable.send rl 1;
        Sim.Reliable.send rl 2;
        (* Run only up to twice the channel latency: enough for frame 2's
           arrival, the nack, and the nack-driven retransmit, but well
           inside the 50ms retransmit timeout. *)
        Sim.Engine.run ~until:0.045 engine;
        Alcotest.(check (list int)) "healed by nack" [ 1; 2 ] (List.rev !got);
        let s = Sim.Reliable.stats rl in
        Alcotest.(check bool) "nacked" true (s.nacks_sent >= 1));
    case "sender gives up after max_retries and reports non-quiescence"
      (fun () ->
        let engine, rl, got =
          make
            ~params:
              { Sim.Reliable.default_params with
                ack_timeout = 0.01;
                max_retries = 3 }
            ()
        in
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some (fun _ -> Sim.Channel.Drop));
        Sim.Reliable.send rl 1;
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "nothing delivered" [] !got;
        Alcotest.(check bool) "gave up" true (Sim.Reliable.gave_up rl);
        Alcotest.(check bool) "not quiescent" false (Sim.Reliable.quiescent rl));
    case "epoch bump voids the old stream at the receiver" (fun () ->
        let engine, rl, got = make () in
        (* Lose frame 2 of the old epoch forever, then restart the sender:
           the receiver must adopt the new epoch's sequence instead of
           waiting on the old gap. *)
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some (fun i -> if i = 2 then Sim.Channel.Drop else Sim.Channel.Deliver));
        Sim.Reliable.send rl 1;
        Sim.Reliable.send rl 2;
        Sim.Engine.run ~until:0.02 engine;
        Sim.Channel.set_fault (Sim.Reliable.data_channel rl) None;
        ignore (Sim.Reliable.bump_epoch rl);
        Sim.Reliable.send rl 10;
        Sim.Reliable.send rl 11;
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "old prefix + new epoch" [ 1; 10; 11 ]
          (List.rev !got);
        Alcotest.(check bool) "quiescent" true (Sim.Reliable.quiescent rl));
    case "a rebased receiver waits for a frame another overtook" (fun () ->
        let engine, rl, got = make () in
        Sim.Reliable.send rl 1;
        Sim.Engine.run engine;
        (* The receiver restarts; the first frame after it (message 2 on
           the channel) is lost once, so frame 4 arrives first. *)
        Sim.Reliable.rebase_receiver rl;
        Sim.Channel.set_fault
          (Sim.Reliable.data_channel rl)
          (Some (fun i -> if i = 2 then Sim.Channel.Drop else Sim.Channel.Deliver));
        Sim.Reliable.send rl 3;
        Sim.Reliable.send rl 4;
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "3 is retransmitted, then 4" [ 1; 3; 4 ]
          (List.rev !got);
        Alcotest.(check bool) "quiescent" true (Sim.Reliable.quiescent rl)) ]

(* The summary as it was when samples were a boxed list, newest first:
   the reference the unboxed buffer must match bit for bit. *)
module List_summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable samples : float list;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan; samples = [] }

  let add t x =
    let n = t.count + 1 in
    let delta = x -. t.mean in
    t.count <- n;
    t.mean <- t.mean +. (delta /. float_of_int n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    t.min <- (if n = 1 then x else Float.min t.min x);
    t.max <- (if n = 1 then x else Float.max t.max x);
    t.samples <- x :: t.samples

  let mean t = if t.count = 0 then 0.0 else t.mean

  let stddev t =
    if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.count - 1))

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let arr = Array.of_list t.samples in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      arr.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
    end
end

(* Every figure of [Summary] against [List_summary], compared as bits so
   that nan, infinities and the sign of zero count. *)
let summary_matches_reference samples =
  let s = Sim.Stats.Summary.create () and r = List_summary.create () in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let agree () =
    let module S = Sim.Stats.Summary in
    S.count s = r.List_summary.count
    && same (S.mean s) (List_summary.mean r)
    && same (S.stddev s) (List_summary.stddev r)
    && same (S.min s) r.List_summary.min
    && same (S.max s) r.List_summary.max
    && List.for_all
         (fun p -> same (S.percentile s p) (List_summary.percentile r p))
         [ 0.0; 1.0; 50.0; 95.0; 99.0; 100.0 ]
  in
  (* Checked midway too: a percentile taken between adds must not leave a
     stale sorted copy behind. *)
  let half = List.length samples / 2 and midway = ref true in
  let empty = agree () in
  List.iteri
    (fun i x ->
      Sim.Stats.Summary.add s x;
      List_summary.add r x;
      if i + 1 = half then midway := agree ())
    samples;
  empty && !midway && agree ()

let summary_property =
  let open QCheck2.Gen in
  let sample =
    frequency
      [ (6, float_range (-100.0) 100.0);
        (2, float);
        (1, oneofl [ 0.0; -0.0; nan; infinity; neg_infinity ]);
        (2, map float_of_int (int_range 0 5)) ]
  in
  Helpers.qcheck ~count:200
    "summary figures are bit-equal to a list-backed reference"
    (oneof
       [ return [];
         map (fun x -> [ x ]) sample;
         list_size (int_range 0 40) sample;
         (* Runs that cross several doublings of the sample buffer. *)
         list_size (int_range 100 300) sample ])
    summary_matches_reference

let tests =
  rng_tests @ engine_tests @ channel_tests @ fault_tests @ reliable_tests
  @ stats_tests @ [ summary_property ]
