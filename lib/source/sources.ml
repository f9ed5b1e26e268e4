open Relational

module String_map = Map.Make (String)

type spec = { source : string; relation : string; init : Relation.t }

type t = {
  owners : string String_map.t; (* relation -> source *)
  source_order : string list;
  initial : Database.t; (* ss_0 *)
  mutable db : Database.t;
  mutable next_id : int;
  mutable rev_transactions : Update.Transaction.t list;
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
  { owners; source_order; initial = db; db; next_id = 1;
    rev_transactions = [] }

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

let initial t = t.initial

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
  txn

let last_id t = t.next_id - 1

let transactions t = List.rev t.rev_transactions

(* Replayed with the function [execute] applies, so each state equals the
   one [execute] produced. *)
let states t =
  let step (db, rev) txn =
    let db = Database.apply_transaction db txn in
    (db, db :: rev)
  in
  List.rev (snd (List.fold_left step (t.initial, [ t.initial ]) (transactions t)))

let state t i =
  let f = last_id t in
  if i < 0 || i > f then
    invalid_arg (Printf.sprintf "Sources.state: %d out of range [0,%d]" i f);
  let rec replay db k = function
    | txn :: rest when k < i ->
      replay (Database.apply_transaction db txn) (k + 1) rest
    | _ -> db
  in
  replay t.initial 0 (transactions t)

let query t expr = Query.Eval.eval t.db expr
