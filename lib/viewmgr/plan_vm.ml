open Relational

type drain = One | Greedy | Exactly of int

let level = function
  | One -> Vm.Complete
  | Greedy -> Vm.Strongly_consistent
  | Exactly n -> Vm.Complete_n n

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  on_apply : Update.Transaction.t -> Database.t -> unit;
  drain : drain;
  plan : Selfmaint.Plan.t;
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable groups : Query.Compiled.groups; (* the plan's state at [cache] *)
  mutable busy : bool;
}

let take st n = List.init n (fun _ -> Queue.pop st.queue)

let rec pump st =
  let ready = Queue.length st.queue in
  if not st.busy then
    match st.drain with
    | One when ready > 0 -> run st (take st 1)
    | Greedy when ready > 0 -> run st (take st ready)
    | Exactly n when ready >= n -> run st (take st n)
    | One | Greedy | Exactly _ -> ()

and run st batch =
  st.busy <- true;
  let last = List.nth batch (List.length batch - 1) in
  let changes =
    Selfmaint.Plan.project st.plan (Query.Delta.of_transactions batch)
  in
  (* Cache and group state are persistent, so [pre] and [groups] stay
     an immutable snapshot for the future. The emit event advances the
     cache after the future has probed [pre], so every index the step
     built is carried into the post-state instead of rebuilt by the
     next step; nothing reads the cache before then, the manager being
     busy. *)
  let pre = st.cache and groups = st.groups in
  let txn = last.Update.Transaction.id in
  let fut =
    Parallel.Exec.spawn st.exec (fun () ->
        let delta, groups =
          Selfmaint.Plan.step ~exec:st.exec ~txn st.plan ~pre ~groups changes
        in
        ( Query.Action_list.delta
            ~view:(Query.View.name (Selfmaint.Plan.view st.plan))
            ~state:txn delta,
          groups ))
  in
  Sim.Engine.schedule_after st.engine
    (st.compute_latency ~batch:(List.length batch))
    (fun () ->
      let al, groups = Parallel.Exec.await fut in
      st.cache <- Selfmaint.Plan.advance st.plan pre changes;
      st.on_apply last st.cache;
      st.groups <- groups;
      st.emit al;
      st.busy <- false;
      pump st)

let flush st =
  if (not st.busy) && not (Queue.is_empty st.queue) then
    run st (take st (Queue.length st.queue))

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential)
    ?state ?(on_apply = fun _ _ -> ()) ~drain ~plan ~emit () =
  (match drain with
  | Exactly n when n < 1 -> invalid_arg "Plan_vm.create: Exactly n < 1"
  | (Greedy | Exactly _) when Selfmaint.Plan.has_slots plan ->
    invalid_arg "Plan_vm.create: a plan with shared slots needs the One drain"
  | One | Greedy | Exactly _ -> ());
  let cache, groups =
    match state with
    | Some s -> s
    | None -> (Selfmaint.Plan.initial_cache plan, Query.Compiled.no_groups)
  in
  let st =
    { engine; compute_latency; exec; on_apply; drain; plan; emit;
      queue = Queue.create (); cache; groups; busy = false }
  in
  { Vm.view = Selfmaint.Plan.view plan; level = level drain;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> flush st);
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
