module String_map = Map.Make (String)

type t = Relation.t String_map.t

exception Unknown_relation of string

let empty = String_map.empty

let add name rel t = String_map.add name rel t

let of_list bindings =
  List.fold_left (fun acc (name, rel) -> add name rel acc) empty bindings

let find t name =
  match String_map.find_opt name t with
  | Some rel -> rel
  | None -> raise (Unknown_relation name)

let find_opt t name = String_map.find_opt name t

let mem t name = String_map.mem name t

let schema t name = Relation.schema (find t name)

let map f t = String_map.map f t

let names t = List.map fst (String_map.bindings t)

let restrict t keep =
  String_map.filter (fun name _ -> List.mem name keep) t

let apply_update t (u : Update.t) =
  let rel = find t u.relation in
  let rel =
    match u.op with
    | Update.Insert tup -> Relation.insert tup rel
    | Update.Delete tup -> Relation.delete tup rel
    | Update.Modify { before; after } ->
      Relation.insert after (Relation.delete before rel)
  in
  String_map.add u.relation rel t

let apply_transaction t (txn : Update.Transaction.t) =
  List.fold_left apply_update t txn.updates

let apply_relevant t (txn : Update.Transaction.t) =
  List.fold_left
    (fun db (u : Update.t) -> if mem db u.relation then apply_update db u else db)
    t txn.updates

let equal a b = String_map.equal Relation.equal a b

let pp ppf t =
  let pp_binding ppf (name, rel) =
    Fmt.pf ppf "@[<v2>%s:@ %a@]" name Relation.pp rel
  in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut pp_binding)
    (String_map.bindings t)
