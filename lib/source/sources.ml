open Relational

module String_map = Map.Make (String)

type spec = { source : string; relation : string; init : Relation.t }

type t = {
  owners : string String_map.t; (* relation -> source *)
  source_order : string list;
  mutable db : Database.t;
  mutable next_id : int;
  mutable rev_transactions : Update.Transaction.t list;
  mutable rev_states : Database.t list; (* newest first; last is ss_0 *)
}

exception Unknown_source of string

exception Ownership_violation of string

let create specs =
  let add_owner acc s =
    if String_map.mem s.relation acc then
      invalid_arg
        (Printf.sprintf "Sources.create: relation %s declared twice" s.relation)
    else String_map.add s.relation s.source acc
  in
  let owners = List.fold_left add_owner String_map.empty specs in
  let source_order =
    List.fold_left
      (fun seen s ->
        if List.mem s.source seen then seen else seen @ [ s.source ])
      [] specs
  in
  let db =
    List.fold_left
      (fun db s -> Database.add s.relation s.init db)
      Database.empty specs
  in
  { owners; source_order; db; next_id = 1; rev_transactions = [];
    rev_states = [ db ] }

let source_names t = t.source_order

let relation_names t = Database.names t.db

let relations_of t source =
  if not (List.mem source t.source_order) then raise (Unknown_source source);
  List.filter_map
    (fun (rel, owner) -> if String.equal owner source then Some rel else None)
    (String_map.bindings t.owners)

let owner t relation =
  match String_map.find_opt relation t.owners with
  | Some source -> source
  | None -> raise (Database.Unknown_relation relation)

let schema t relation = Database.schema t.db relation

let schema_lookup t relation = schema t relation

let current t = t.db

let initial t =
  match List.rev t.rev_states with
  | initial :: _ -> initial
  | [] -> assert false

let execute t ?source updates =
  if updates = [] then invalid_arg "Sources.execute: empty transaction";
  let check_owner (u : Update.t) =
    let o = owner t u.relation in
    match source with
    | Some s when not (String.equal o s) ->
      raise
        (Ownership_violation
           (Printf.sprintf "relation %s belongs to %s, not %s" u.relation o s))
    | Some _ | None -> ()
  in
  List.iter check_owner updates;
  let attributed_source =
    match (source, updates) with
    | Some s, _ -> s
    | None, u :: _ -> owner t u.relation
    | None, [] -> assert false
  in
  let txn =
    Update.Transaction.make ~id:t.next_id ~source:attributed_source updates
  in
  (* Every cache and warehouse view downstream applies the transaction as
     the sum of its updates; a deletion of an absent tuple would make the
     source's one-by-one application (clamped at zero) differ from it. *)
  (match
     Query.Delta.first_clamp ~pre:t.db (Query.Delta.of_transaction txn)
   with
  | Some (relation, tup) ->
    invalid_arg
      (Printf.sprintf
         "Sources.execute: deletes %s from %s, which does not hold it"
         (Tuple.to_string tup) relation)
  | None -> ());
  t.db <- Database.apply_transaction t.db txn;
  t.next_id <- t.next_id + 1;
  t.rev_transactions <- txn :: t.rev_transactions;
  t.rev_states <- t.db :: t.rev_states;
  txn

let last_id t = t.next_id - 1

let transactions t = List.rev t.rev_transactions

let states t = List.rev t.rev_states

let state t i =
  let n = List.length t.rev_states in
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Sources.state: %d out of range [0,%d]" i (n - 1));
  List.nth t.rev_states (n - 1 - i)

let query t expr = Query.Eval.eval t.db expr
