open Relational

module String_map = Map.Make (String)

(* Per relation: the summed delta, and the sequence of elementary deltas
   it sums (newest first) — what the clamp guard replays. *)
type change = { total : Signed_bag.t; rev_steps : Signed_bag.t list }

type changes = change String_map.t

let no_changes = String_map.empty

let add_change name delta acc =
  String_map.update name
    (function
      | None -> Some { total = delta; rev_steps = [ delta ] }
      | Some c ->
        Some
          { total = Signed_bag.sum c.total delta;
            rev_steps = delta :: c.rev_steps })
    acc

let changes_of_list entries =
  List.fold_left
    (fun acc (name, delta) -> add_change name delta acc)
    no_changes entries

(* A modify is a delete then an insert: two steps, as the sources and
   every cache apply it. *)
let add_update acc (u : Update.t) =
  let add tup n acc = add_change u.relation (Signed_bag.singleton tup n) acc in
  match u.op with
  | Update.Insert tup -> add tup 1 acc
  | Update.Delete tup -> add tup (-1) acc
  | Update.Modify { before; after } -> add after 1 (add before (-1) acc)

let of_update u = add_update no_changes u

let of_transaction (txn : Update.Transaction.t) =
  List.fold_left add_update no_changes txn.updates

let of_transactions txns =
  List.fold_left
    (fun acc (txn : Update.Transaction.t) ->
      List.fold_left add_update acc txn.updates)
    no_changes txns

let first_clamp ~pre changes =
  String_map.to_seq changes
  |> Seq.find_map (fun (name, c) ->
         match Database.find_opt pre name with
         | None -> None
         | Some rel ->
           Option.map
             (fun tup -> (name, tup))
             (Signed_bag.first_clamp (List.rev c.rev_steps)
                ~bag:(Relation.contents rel)))

let change_for t name =
  match String_map.find_opt name t with
  | Some c -> c.total
  | None -> Signed_bag.zero

let changed_relations t =
  List.filter_map
    (fun (name, c) -> if Signed_bag.is_zero c.total then None else Some name)
    (String_map.bindings t)

let signed_of_counted entries =
  List.fold_left (fun acc (tup, n) -> Signed_bag.add tup n acc) Signed_bag.zero
    entries

(* Interpreted reference: the delta rules over the raw algebra, with
   nested-loop joins and per-tuple name resolution. The compiled path is
   property-tested against this. *)
let rec eval_naive ~pre changes expr =
  let lookup name = Database.schema pre name in
  match (expr : Algebra.t) with
  | Base name ->
    (* Force the relation to exist even when unchanged. *)
    let _ = Database.find pre name in
    change_for changes name
  | Select (pred, e) ->
    let schema = Algebra.schema_of lookup e in
    Signed_bag.filter (Pred.eval schema pred) (eval_naive ~pre changes e)
  | Project (names, e) ->
    let schema = Algebra.schema_of lookup e in
    Signed_bag.map (Tuple.project schema names) (eval_naive ~pre changes e)
  | Join (a, b) ->
    let sa = Algebra.schema_of lookup a and sb = Algebra.schema_of lookup b in
    let da = eval_naive ~pre changes a and db_ = eval_naive ~pre changes b in
    if Signed_bag.is_zero da && Signed_bag.is_zero db_ then Signed_bag.zero
    else begin
      let pre_a = Bag.to_counted_list (Eval.eval_bag ~naive:true pre a) in
      let pre_b = Bag.to_counted_list (Eval.eval_bag ~naive:true pre b) in
      let da_l = Signed_bag.to_list da and db_l = Signed_bag.to_list db_ in
      (* d(A |><| B) = dA |><| B_pre + A_pre |><| dB + dA |><| dB *)
      let part1 = Eval.join_counted_naive sa sb da_l pre_b in
      let part2 = Eval.join_counted_naive sa sb pre_a db_l in
      let part3 = Eval.join_counted_naive sa sb da_l db_l in
      signed_of_counted (List.concat [ part1; part2; part3 ])
    end
  | Union (a, b) ->
    Signed_bag.sum (eval_naive ~pre changes a) (eval_naive ~pre changes b)
  | Rename (_, e) -> eval_naive ~pre changes e
  | Group_by group ->
    let d_in = eval_naive ~pre changes group.input in
    if Signed_bag.is_zero d_in then Signed_bag.zero
    else begin
      let input_schema = Algebra.schema_of lookup group.input in
      let key_of tup = Tuple.project input_schema group.keys tup in
      (* Recompute exactly the affected groups: retract the old output row
         of each touched key, emit the new one. Exact for every aggregate
         kind, including Min/Max under deletions. *)
      let affected = Hashtbl.create 16 in
      Signed_bag.fold
        (fun tup _ () -> Hashtbl.replace affected (key_of tup) ())
        d_in ();
      let pre_in = Eval.eval_bag ~naive:true pre group.input in
      let groups_of bag =
        let table = Hashtbl.create 16 in
        Bag.iter
          (fun tup n ->
            let key = key_of tup in
            if Hashtbl.mem affected key then begin
              let existing =
                match Hashtbl.find_opt table key with
                | Some b -> b
                | None -> Bag.empty
              in
              Hashtbl.replace table key (Bag.add ~count:n tup existing)
            end)
          bag;
        table
      in
      let old_groups = groups_of pre_in in
      let post_in = Signed_bag.apply d_in pre_in in
      let new_groups = groups_of post_in in
      Hashtbl.fold
        (fun key () acc ->
          let old_members =
            match Hashtbl.find_opt old_groups key with
            | Some b -> b
            | None -> Bag.empty
          in
          let new_members =
            match Hashtbl.find_opt new_groups key with
            | Some b -> b
            | None -> Bag.empty
          in
          let acc =
            if Bag.is_empty old_members then acc
            else
              Signed_bag.add
                (Eval.aggregate_group ~input_schema ~group ~key old_members)
                (-1) acc
          in
          if Bag.is_empty new_members then acc
          else
            Signed_bag.add
              (Eval.aggregate_group ~input_schema ~group ~key new_members)
              1 acc)
        affected Signed_bag.zero
    end

(* A base relation's change, forcing the relation to exist in [pre]. *)
let changes_over ~pre changes name =
  let _ = Database.find pre name in
  change_for changes name

let eval_plan ?(exec = Parallel.Exec.sequential) ?pre_index ~pre changes plan =
  Compiled.delta ~exec ?pre_index ~pre_relation:(Database.find_opt pre)
    ~changes:(changes_over ~pre changes)
    ~eval_pre:(Compiled.eval_bag ~exec pre)
    plan

(* The stateful rule needs [pre] + [changes] to be the post-state; when a
   deletion would clamp, the state is dropped and rebuilt by a later
   step from its own (post-state) pre-state. *)
let step ?(exec = Parallel.Exec.sequential) ?pre_index ~pre ~groups changes
    plan =
  if not (Compiled.has_group_by plan) then
    (eval_plan ~exec ?pre_index ~pre changes plan, groups)
  else if Option.is_some (first_clamp ~pre changes) then
    (eval_plan ~exec ?pre_index ~pre changes plan, Compiled.drop_groups groups)
  else
    Compiled.step ~exec ?pre_index ~pre_relation:(Database.find_opt pre)
      ~changes:(changes_over ~pre changes)
      ~eval_pre:(Compiled.eval_bag ~exec pre)
      ~groups plan

let eval ?(naive = false) ?exec ~pre changes expr =
  if naive then eval_naive ~pre changes expr
  else
    eval_plan ?exec ~pre changes
      (Compiled.compile_memo ~lookup:(Database.schema pre) expr)

let relevant changes expr =
  let changed = changed_relations changes in
  List.exists (fun name -> List.mem name changed) (Algebra.base_relations expr)
