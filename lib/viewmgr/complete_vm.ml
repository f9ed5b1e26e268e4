open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  view : Query.View.t;
  plan : Query.Compiled.t; (* the view definition, compiled once *)
  delta_fn :
    (pre:Database.t -> Update.Transaction.t -> Signed_bag.t) option;
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable groups : Query.Compiled.groups; (* the plan's state at [cache] *)
  mutable busy : bool;
}

let rec pump st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    st.busy <- true;
    let txn = Queue.pop st.queue in
    (* The delta runs as a future over a snapshot of the pre-state
       (Database.t and the group state are persistent, so [pre] and
       [groups] are immutable); it is joined in the emit event, which
       installs the post-state group state, so the simulated timeline is
       unchanged — a pooled exec only moves real work off this domain. *)
    let pre = st.cache and groups = st.groups in
    let fut =
      Parallel.Exec.spawn st.exec (fun () ->
          let delta, groups =
            match st.delta_fn with
            | Some f -> (f ~pre txn, groups)
            | None ->
              let changes = Query.Delta.of_transaction txn in
              Query.Delta.step ~exec:st.exec ~pre ~groups changes st.plan
          in
          ( Query.Action_list.delta ~view:(Query.View.name st.view)
              ~state:txn.Update.Transaction.id delta,
            groups ))
    in
    st.cache <- Database.apply_relevant st.cache txn;
    Sim.Engine.schedule_after st.engine (st.compute_latency ~batch:1)
      (fun () ->
        let al, groups = Parallel.Exec.await fut in
        st.groups <- groups;
        st.emit al;
        st.busy <- false;
        pump st)
  end

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential)
    ?delta_fn ~initial ~view ~emit () =
  let cache = Database.restrict initial (Query.View.base_relations view) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema cache)
      view.Query.View.def
  in
  let st =
    { engine; compute_latency; exec; view; plan; delta_fn; emit;
      queue = Queue.create (); cache; groups = Query.Compiled.no_groups;
      busy = false }
  in
  { Vm.view; level = Vm.Complete;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
