module Summary = struct
  (* Samples live unboxed in [samples.(0 .. count - 1)], which doubles
     when full: one word per sample. *)
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable samples : Float.Array.t;
    mutable sorted : Float.Array.t option;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan;
      samples = Float.Array.create 0; sorted = None }

  let push t x =
    let cap = Float.Array.length t.samples in
    if t.count = cap then begin
      let grown = Float.Array.create (Stdlib.max 16 (2 * cap)) in
      Float.Array.blit t.samples 0 grown 0 t.count;
      t.samples <- grown
    end;
    Float.Array.set t.samples t.count x

  let add t x =
    push t x;
    let n = t.count + 1 in
    let delta = x -. t.mean in
    t.count <- n;
    t.mean <- t.mean +. (delta /. float_of_int n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    t.min <- (if n = 1 then x else Float.min t.min x);
    t.max <- (if n = 1 then x else Float.max t.max x);
    t.sorted <- None

  let count t = t.count

  let mean t = if t.count = 0 then 0.0 else t.mean

  let stddev t =
    if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.count - 1))

  let min t = t.min

  let max t = t.max

  let sorted t =
    match t.sorted with
    | Some arr -> arr
    | None ->
      (* Sorted newest first, so samples that compare equal (0. and -0.)
         rank where a newest-first list put them and every percentile
         is bit-identical to that list's. *)
      let n = t.count in
      let arr =
        Float.Array.init n (fun i -> Float.Array.get t.samples (n - 1 - i))
      in
      Float.Array.sort Float.compare arr;
      t.sorted <- Some arr;
      arr

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let arr = sorted t in
      let n = Float.Array.length arr in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
      in
      let rank = Stdlib.max 0 (Stdlib.min (n - 1) rank) in
      Float.Array.get arr rank
    end

  let pp ppf t =
    if t.count = 0 then Fmt.string ppf "n=0"
    else
      Fmt.pf ppf "n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g"
        t.count (mean t) (stddev t) t.min (percentile t 50.0)
        (percentile t 95.0) t.max
end

module Counter = struct
  type t = { mutable value : int }

  let create () = { value = 0 }

  let incr ?(by = 1) t = t.value <- t.value + by

  let value t = t.value
end

module Time_weighted = struct
  type t = {
    start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable weighted_sum : float;
    mutable maximum : float;
  }

  let create ~now ~initial =
    { start = now; last_time = now; last_value = initial; weighted_sum = 0.0;
      maximum = initial }

  let observe t ~now value =
    t.weighted_sum <-
      t.weighted_sum +. (t.last_value *. (now -. t.last_time));
    t.last_time <- now;
    t.last_value <- value;
    if value > t.maximum then t.maximum <- value

  let average t ~now =
    let span = now -. t.start in
    if span <= 0.0 then t.last_value
    else
      (t.weighted_sum +. (t.last_value *. (now -. t.last_time))) /. span

  let current t = t.last_value

  let maximum t = t.maximum
end
