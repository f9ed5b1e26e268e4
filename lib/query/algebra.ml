open Relational

type aggregate = Count | Sum of string | Avg of string | Min of string | Max of string

type t =
  | Base of string
  | Select of Pred.t * t
  | Project of string list * t
  | Join of t * t
  | Union of t * t
  | Rename of (string * string) list * t
  | Group_by of group_by

and group_by = {
  keys : string list;
  aggregates : (string * aggregate) list;
  input : t;
}

let base name = Base name

let select pred e = Select (pred, e)

let project names e = Project (names, e)

let join a b = Join (a, b)

let join_all = function
  | [] -> invalid_arg "Algebra.join_all: empty list"
  | e :: es -> List.fold_left join e es

let union a b = Union (a, b)

let rename mapping e = Rename (mapping, e)

let group_by ~keys ~aggregates input = Group_by { keys; aggregates; input }

let base_relations t =
  let add seen name = if List.mem name seen then seen else name :: seen in
  let rec loop seen = function
    | Base name -> add seen name
    | Select (_, e) | Project (_, e) | Rename (_, e) -> loop seen e
    | Group_by { input; _ } -> loop seen input
    | Join (a, b) | Union (a, b) -> loop (loop seen a) b
  in
  List.rev (loop [] t)

let rec schema_of lookup = function
  | Base name -> lookup name
  | Select (pred, e) ->
    let schema = schema_of lookup e in
    (* Force resolution of every predicate attribute so that ill-typed view
       definitions fail at schema-inference time, not mid-maintenance. *)
    List.iter (fun n -> ignore (Schema.index_of schema n)) (Pred.attrs pred);
    schema
  | Project (names, e) -> Schema.project (schema_of lookup e) names
  | Join (a, b) -> Schema.join (schema_of lookup a) (schema_of lookup b)
  | Union (a, b) ->
    let sa = schema_of lookup a and sb = schema_of lookup b in
    if not (Schema.equal sa sb) then
      invalid_arg "Algebra.schema_of: union of incompatible schemas";
    sa
  | Rename (mapping, e) -> Schema.rename (schema_of lookup e) mapping
  | Group_by { keys; aggregates; input } ->
    let inner = schema_of lookup input in
    let key_attrs = List.map (fun k -> (k, Schema.type_of inner k)) keys in
    let agg_attr (name, agg) =
      let ty =
        match agg with
        | Count -> Value.Int_ty
        | Sum a | Min a | Max a -> Schema.type_of inner a
        | Avg _ -> Value.Float_ty
      in
      (* Force attribute resolution for Avg too. *)
      (match agg with
      | Avg a -> ignore (Schema.type_of inner a)
      | Count | Sum _ | Min _ | Max _ -> ());
      (name, ty)
    in
    Schema.make (key_attrs @ List.map agg_attr aggregates)

let rec depth = function
  | Base _ -> 1
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + depth e
  | Group_by { input; _ } -> 1 + depth input
  | Join (a, b) | Union (a, b) -> 1 + max (depth a) (depth b)

let rec size = function
  | Base _ -> 1
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Group_by { input; _ } -> 1 + size input
  | Join (a, b) | Union (a, b) -> 1 + size a + size b

let rec pp ppf = function
  | Base name -> Fmt.string ppf name
  | Select (pred, e) -> Fmt.pf ppf "sigma[%a](%a)" Pred.pp pred pp e
  | Project (names, e) ->
    Fmt.pf ppf "pi[%a](%a)" (Fmt.list ~sep:Fmt.comma Fmt.string) names pp e
  | Join (a, b) -> Fmt.pf ppf "(%a |><| %a)" pp a pp b
  | Union (a, b) -> Fmt.pf ppf "(%a U %a)" pp a pp b
  | Rename (mapping, e) ->
    let pp_pair ppf (a, b) = Fmt.pf ppf "%s/%s" b a in
    Fmt.pf ppf "rho[%a](%a)"
      (Fmt.list ~sep:Fmt.comma pp_pair)
      mapping pp e
  | Group_by { keys; aggregates; input } ->
    let pp_agg ppf (name, agg) =
      match agg with
      | Count -> Fmt.pf ppf "%s=count" name
      | Sum a -> Fmt.pf ppf "%s=sum(%s)" name a
      | Avg a -> Fmt.pf ppf "%s=avg(%s)" name a
      | Min a -> Fmt.pf ppf "%s=min(%s)" name a
      | Max a -> Fmt.pf ppf "%s=max(%s)" name a
    in
    Fmt.pf ppf "gamma[%a; %a](%a)"
      (Fmt.list ~sep:Fmt.comma Fmt.string)
      keys
      (Fmt.list ~sep:Fmt.comma pp_agg)
      aggregates pp input

let to_string t = Fmt.str "%a" pp t
