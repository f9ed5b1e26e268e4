open Relational

type state = {
  engine : Sim.Engine.t;
  emit_delay : unit -> float;
  plan : Selfmaint.Plan.t;
  emit : Query.Action_list.t -> unit;
  mutable cache : Database.t;
  mutable groups : Query.Compiled.groups; (* the plan's state at [cache] *)
  mutable in_flight : int;
}

let create ~engine ~emit_delay ~initial ~view ~emit () =
  let plan = Selfmaint.Plan.replica ~initial view in
  let st =
    { engine; emit_delay; plan; emit; cache = Selfmaint.Plan.initial_cache plan;
      groups = Query.Compiled.no_groups; in_flight = 0 }
  in
  { Vm.view; level = Vm.Convergent;
    receive =
      (fun txn ->
        let changes =
          Selfmaint.Plan.project plan (Query.Delta.of_transaction txn)
        in
        let delta, groups =
          Selfmaint.Plan.step plan ~pre:st.cache ~groups:st.groups changes
        in
        st.cache <- Selfmaint.Plan.advance plan st.cache changes;
        st.groups <- groups;
        let al =
          Query.Action_list.delta ~view:(Query.View.name view)
            ~state:txn.Update.Transaction.id delta
        in
        st.in_flight <- st.in_flight + 1;
        (* Deliberately unordered: each list leaves after its own delay. *)
        Sim.Engine.schedule_after st.engine (st.emit_delay ()) (fun () ->
            st.in_flight <- st.in_flight - 1;
            st.emit al));
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> st.in_flight) }
