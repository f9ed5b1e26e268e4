open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  aux_plans : (string * Query.Compiled.t) list; (* per aux view, compiled *)
  view : Query.View.t;
  over_aux_plan : Query.Compiled.t;
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable base_cache : Database.t; (* base relations the aux views need *)
  mutable aux_cache : Database.t; (* materialized auxiliary views *)
  mutable aux_groups : Query.Compiled.groups list; (* per aux plan *)
  mutable over_aux_groups : Query.Compiled.groups;
  mutable busy : bool;
}

let rec pump st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    st.busy <- true;
    let txn = Queue.pop st.queue in
    let base_changes = Query.Delta.of_transaction txn in
    (* Level 1: deltas of each auxiliary view from the base cache, each
       plan keeping its own [Group_by] state. *)
    let aux_deltas =
      List.map2
        (fun (name, plan) groups ->
          let d, groups =
            Query.Delta.step ~pre:st.base_cache ~groups base_changes plan
          in
          ((name, d), groups))
        st.aux_plans st.aux_groups
    in
    let aux_changes = Query.Delta.changes_of_list (List.map fst aux_deltas) in
    (* Level 2: the primary view's delta over the materialized
       auxiliaries. *)
    let delta, over_aux_groups =
      Query.Delta.step ~pre:st.aux_cache ~groups:st.over_aux_groups aux_changes
        st.over_aux_plan
    in
    st.aux_groups <- List.map snd aux_deltas;
    st.over_aux_groups <- over_aux_groups;
    st.base_cache <- Query.Delta.apply st.base_cache base_changes;
    st.aux_cache <- Query.Delta.apply st.aux_cache aux_changes;
    let al =
      Query.Action_list.delta ~view:(Query.View.name st.view)
        ~state:txn.Update.Transaction.id delta
    in
    Sim.Engine.schedule_after st.engine (st.compute_latency ~batch:1)
      (fun () ->
        st.emit al;
        st.busy <- false;
        pump st)
  end

let create ~engine ~compute_latency ~initial ~aux ~view ~over_aux ~emit () =
  let aux_names = List.map Query.View.name aux in
  List.iter
    (fun r ->
      if not (List.mem r aux_names) then
        invalid_arg
          (Printf.sprintf
             "Derived_vm: %s is not an auxiliary view of %s" r
             (Query.View.name view)))
    (Query.Algebra.base_relations over_aux);
  let base_relations =
    List.sort_uniq compare (List.concat_map Query.View.base_relations aux)
  in
  let base_cache = Database.restrict initial base_relations in
  let aux_cache =
    Database.of_list
      (List.map
         (fun a -> (Query.View.name a, Query.View.materialize base_cache a))
         aux)
  in
  let aux_plans =
    List.map
      (fun a ->
        ( Query.View.name a,
          Query.Compiled.compile ~lookup:(Database.schema base_cache)
            a.Query.View.def ))
      aux
  in
  let over_aux_plan =
    Query.Compiled.compile ~lookup:(Database.schema aux_cache) over_aux
  in
  let st =
    { engine; compute_latency; aux_plans; view; over_aux_plan; emit;
      queue = Queue.create (); base_cache; aux_cache;
      aux_groups = List.map (fun _ -> Query.Compiled.no_groups) aux_plans;
      over_aux_groups = Query.Compiled.no_groups; busy = false }
  in
  { Vm.view; level = Vm.Complete;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
