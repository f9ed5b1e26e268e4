open Relational

type storage = {
  aux_rows : int;
  aux_cells : int;
  replica_rows : int;
  replica_cells : int;
}

type t = {
  view : Query.View.t;
  auxes : Derive.aux list;
  (* Per auxiliary relation, the tuple projector resolved once against
     the full base schema (incoming deltas carry full-width tuples); the
     identity for a full replica. *)
  projectors : (string * (Signed_bag.t -> Signed_bag.t)) list;
  compiled : Query.Compiled.t;
  initial : Database.t;
  storage : storage;
}

let build ~initial view auxes_of =
  let base = Database.restrict initial (Query.View.base_relations view) in
  let auxes = auxes_of (Database.schema base) in
  let cache =
    List.fold_left
      (fun db (a : Derive.aux) ->
        if a.full then db
        else
          Database.add a.relation
            (Query.Eval.eval base
               (Query.Algebra.Project (a.live, Query.Algebra.Base a.relation)))
            db)
      base auxes
  in
  let projectors =
    List.map
      (fun (a : Derive.aux) ->
        if a.full then (a.relation, Fun.id)
        else
          let pos = Schema.positions (Database.schema base a.relation) a.live in
          (a.relation, Signed_bag.map (Tuple.project_pos pos)))
      auxes
  in
  let compiled =
    Query.Compiled.compile ~lookup:(Database.schema cache) view.Query.View.def
  in
  let storage =
    List.fold_left
      (fun acc (a : Derive.aux) ->
        let full = Database.find base a.relation in
        let aux = Database.find cache a.relation in
        { aux_rows = acc.aux_rows + Relation.cardinal aux;
          aux_cells =
            acc.aux_cells + (Relation.cardinal aux * List.length a.live);
          replica_rows = acc.replica_rows + Relation.cardinal full;
          replica_cells =
            acc.replica_cells
            + Relation.cardinal full * Schema.arity (Relation.schema full) })
      { aux_rows = 0; aux_cells = 0; replica_rows = 0; replica_cells = 0 }
      auxes
  in
  { view; auxes; projectors; compiled; initial = cache; storage }

let create ~initial view =
  build ~initial view (fun schemas ->
      Derive.analyze ~schemas view.Query.View.def)

let replica ~initial view =
  build ~initial view (fun schemas ->
      List.map
        (fun r ->
          { Derive.relation = r; live = Schema.names (schemas r); full = true })
        (Query.View.base_relations view))

let view t = t.view

let auxes t = t.auxes

let initial_cache t = t.initial

let storage t = t.storage

let project t changes =
  Query.Delta.restrict_map (fun r -> List.assoc_opt r t.projectors) changes

let delta ?exec t ~pre changes =
  Query.Delta.eval_plan ?exec ~pre changes t.compiled

let step ?exec t ~pre ~groups changes =
  Query.Delta.step ?exec ~pre ~groups changes t.compiled

let advance _t cache changes = Query.Delta.apply cache changes

let pp ppf t =
  Fmt.pf ppf "@[<v>selfmaint %s:@ %a@ aux %d rows / %d cells (replica %d/%d)@]"
    (Query.View.name t.view)
    (Fmt.list ~sep:Fmt.sp Derive.pp_aux)
    t.auxes t.storage.aux_rows t.storage.aux_cells t.storage.replica_rows
    t.storage.replica_cells
