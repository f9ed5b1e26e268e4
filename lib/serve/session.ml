open Relational

type guarantee = Latest | Monotonic_reads | Bounded_staleness of float

let guarantee_name = function
  | Latest -> "latest"
  | Monotonic_reads -> "monotonic"
  | Bounded_staleness s -> Printf.sprintf "bounded-%.3f" s

type outcome = {
  result : Bag.t;
  version : int;
  version_time : float;
  staleness : float;
  cache_hit : bool;
  clamped : bool;
}

type pending = {
  selected : Version_manager.version;
  p_clamped : bool;
  mutable live : bool;  (* lease not yet released *)
}

type t = {
  vm : Version_manager.t;
  cache : Result_cache.t option;
  guarantee : guarantee;
  mutable token : int;
}

let create ?cache ~guarantee vm =
  Option.iter (fun c -> Result_cache.bind c vm) cache;
  { vm; cache; guarantee; token = 0 }

let guarantee t = t.guarantee

let token t = t.token

(* The version a read may be served from, per the guarantee. [requested]
   is the version the read asked for (as_of, or latest for a current
   read); clamping only ever moves *forward* in version order. *)
let select t ~now ~as_of =
  let vm = t.vm in
  let requested, pruned_clamp =
    match as_of with
    | None -> (Version_manager.latest vm, false)
    | Some instant -> (
      (* Pruned history is served as "the oldest we still have". *)
      match Version_manager.as_of vm instant with
      | v -> (v, false)
      | exception Version_manager.Pruned _ ->
        (Version_manager.oldest_live vm, true))
  in
  let chosen =
    match t.guarantee with
    | Latest -> (
      match as_of with
      | Some _ -> requested
      | None -> Version_manager.latest vm)
    | Monotonic_reads ->
      if requested.Version_manager.index < t.token then
        (* The token's version may itself have been pruned (this session
           has not pinned it between reads); clamp to the oldest retained
           one past it. *)
        (match Version_manager.find vm t.token with
        | v -> v
        | exception Version_manager.Pruned _ ->
          Version_manager.oldest_live vm)
      else requested
    | Bounded_staleness bound -> (
      let cutoff = now -. bound in
      match as_of with
      | None ->
        (* Oldest version inside the staleness bound: every session
           reading it shares one cached snapshot per query, staleness
           still <= bound. *)
        Version_manager.oldest_at_least vm cutoff
      | Some _ ->
        if requested.Version_manager.time < cutoff then
          Version_manager.oldest_at_least vm cutoff
        else requested)
  in
  ( chosen,
    pruned_clamp
    || chosen.Version_manager.index <> requested.Version_manager.index )

let start t ~now ?as_of () =
  let selected, clamped = select t ~now ~as_of in
  let selected = Version_manager.pin t.vm selected.Version_manager.index in
  { selected; p_clamped = clamped; live = true }

let pending_version p = p.selected

let evaluate t (v : Version_manager.version) expr =
  let compute () =
    Query.Compiled.eval_bag v.state
      (Query.Compiled.compile_memo ~lookup:(Database.schema v.state) expr)
  in
  match t.cache with
  | None -> (compute (), false)
  | Some cache -> (
    match Result_cache.find cache ~version:v.index expr with
    | Some result -> (result, true)
    | None ->
      let result = compute () in
      Result_cache.store cache ~version:v.index
        ~support:(Query.Algebra.base_relations expr) expr result;
      (result, false))

let complete t p ~now expr =
  if not p.live then invalid_arg "Session.complete: read already completed";
  p.live <- false;
  let v = p.selected in
  let result, cache_hit = evaluate t v expr in
  Version_manager.unpin t.vm v.Version_manager.index;
  t.token <- max t.token v.Version_manager.index;
  { result; version = v.Version_manager.index;
    version_time = v.Version_manager.time;
    staleness = Float.max 0.0 (now -. v.Version_manager.time); cache_hit;
    clamped = p.p_clamped }

let read t ~now ?as_of expr = complete t (start t ~now ?as_of ()) ~now expr
