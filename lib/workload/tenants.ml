open Relational

type config = {
  seed : int;
  tenants : int;
  initial_tuples : int;
  n_transactions : int;
  skew : float;
  value_range : int;
}

let default =
  { seed = 42; tenants = 4; initial_tuples = 6; n_transactions = 24;
    skew = 1.0; value_range = 5 }

type t = {
  scenario : Scenarios.t;
  tenant_of_view : (string * int) list;
  unions : (string * string list) list;
  tenant_index : (string, int) Hashtbl.t;
}

let tenant_of t view = Hashtbl.find t.tenant_index view

(* Inverse-CDF sampling over the truncated Zipf weights 1/(i+1)^skew.
   skew = 0 degenerates to uniform. *)
let zipf rng ~skew n =
  if n < 1 then invalid_arg "Tenants.zipf: n < 1";
  if skew < 0.0 then invalid_arg "Tenants.zipf: negative skew";
  let weights =
    Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** skew))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let x = Sim.Rng.float rng total in
  let rec walk i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else walk (i + 1) acc
  in
  walk 0 0.0

let orders_rel t = Printf.sprintf "orders_t%d" t
let items_rel t = Printf.sprintf "items_t%d" t
let sales_view t = Printf.sprintf "sales_t%d" t
let hot_view t = Printf.sprintf "hot_t%d" t

(* All tenants share attribute names, so same-kind legs have identical
   schemas — the union-compatibility the cross-tenant unions rely on. *)
let orders_schema = lazy (Schema.make [ ("a", Value.Int_ty); ("b", Value.Int_ty) ])
let items_schema = lazy (Schema.make [ ("b", Value.Int_ty); ("c", Value.Int_ty) ])

let random_tuple rng cfg =
  Tuple.ints [ Sim.Rng.int rng cfg.value_range; Sim.Rng.int rng cfg.value_range ]

let gen_specs rng cfg =
  List.concat_map
    (fun t ->
      let tuples schema =
        Relation.of_tuples (Lazy.force schema)
          (List.init cfg.initial_tuples (fun _ -> random_tuple rng cfg))
      in
      [ { Source.Sources.source = Printf.sprintf "s%d" t;
          relation = orders_rel t; init = tuples orders_schema };
        { Source.Sources.source = Printf.sprintf "s%d" t;
          relation = items_rel t; init = tuples items_schema } ])
    (List.init cfg.tenants Fun.id)

let gen_views cfg =
  List.concat_map
    (fun t ->
      let sales =
        Query.View.make (sales_view t)
          (Query.Algebra.join
             (Query.Algebra.base (orders_rel t))
             (Query.Algebra.base (items_rel t)))
      in
      let hot =
        Query.View.make (hot_view t)
          (Query.Algebra.select
             (Query.Pred.le "a" (Value.Int ((cfg.value_range - 1) / 2)))
             (Query.Algebra.base (orders_rel t)))
      in
      [ sales; hot ])
    (List.init cfg.tenants Fun.id)

(* Single-tenant, single-update transactions against a tracked live
   state, so deletes and modifies always target existing tuples. *)
let gen_script rng cfg specs =
  let state = Hashtbl.create 8 in
  List.iter
    (fun (s : Source.Sources.spec) ->
      Hashtbl.replace state s.relation (Relation.contents s.init))
    specs;
  let gen_update () =
    let t = zipf rng ~skew:cfg.skew cfg.tenants in
    let rel = if Sim.Rng.bool rng then orders_rel t else items_rel t in
    let existing = Bag.to_list (Hashtbl.find state rel) in
    let u =
      match (Sim.Rng.int rng 4, existing) with
      | (0 | 1), _ | _, [] -> Update.insert rel (random_tuple rng cfg)
      | 2, _ -> Update.delete rel (Sim.Rng.pick rng existing)
      | _, _ ->
        Update.modify rel
          ~before:(Sim.Rng.pick rng existing)
          ~after:(random_tuple rng cfg)
    in
    Hashtbl.replace state rel
      (Signed_bag.apply (Update.to_delta u) (Hashtbl.find state rel));
    u
  in
  List.init cfg.n_transactions (fun _ -> [ gen_update () ])

let generate cfg =
  if cfg.tenants < 1 then invalid_arg "Tenants: tenants < 1";
  if cfg.value_range < 1 then invalid_arg "Tenants: value_range < 1";
  if cfg.skew < 0.0 then invalid_arg "Tenants: negative skew";
  let rng = Sim.Rng.create cfg.seed in
  let specs = gen_specs rng cfg in
  let views = gen_views cfg in
  let script = gen_script rng cfg specs in
  let tenant_of_view =
    List.concat_map
      (fun t -> [ (sales_view t, t); (hot_view t, t) ])
      (List.init cfg.tenants Fun.id)
  in
  let tenant_index = Hashtbl.create (List.length tenant_of_view) in
  List.iter (fun (view, t) -> Hashtbl.replace tenant_index view t) tenant_of_view;
  let legs f = List.init cfg.tenants f in
  { scenario =
      { Scenarios.name = Printf.sprintf "tenants-%d-%d" cfg.tenants cfg.seed;
        specs; views; script };
    tenant_of_view;
    unions =
      [ ("sales_all", legs sales_view); ("hot_all", legs hot_view) ];
    tenant_index }
