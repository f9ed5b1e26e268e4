open Relational

type storage = {
  aux_rows : int;
  aux_cells : int;
  replica_rows : int;
  replica_cells : int;
}

(* A shared subplan: a join-bearing canonical subexpression that two or
   more plans of one {!share} call contain, maintained once for all of
   them. Its state is one relation per advanced transaction id, each
   derived from the one before ([Relation.derive]) so memoized indexes
   carry over, plus the [Group_by] state of the head version and a
   per-transaction delta memo. Every field is guarded by the table
   lock. *)
type slot = {
  s_name : string;  (* "#shared:i": real relation names never start with '#' *)
  s_expr : Query.Algebra.t;  (* canonical, over real base relations *)
  s_plan : Query.Compiled.t;  (* deeper slots as base relations *)
  s_schema : Schema.t;
  s_bases : string list;  (* real base relations of [s_expr] *)
  s_deps : slot list;  (* slots [s_plan] reads directly *)
  s_referrers : string list;  (* views whose plan contains the slot *)
  s_read : bool;  (* some plan's delta rules read the slot's pre-state *)
  mutable s_versions : (int * Relation.t Lazy.t) list;
      (* newest first, 0 = initial, empty when not [s_read]; a version
         is derived on its first read, after the readers of its parent
         have built their indexes on it *)
  mutable s_groups : Query.Compiled.groups;  (* at the newest version *)
  s_memo : (int, Signed_bag.t) Hashtbl.t;  (* transaction id -> delta *)
}

type slots = {
  all : slot list;  (* smaller expressions first *)
  lock : Mutex.t;
  completed : (string, int) Hashtbl.t;  (* view -> last stepped txn *)
  mutable hits : int;
  mutable misses : int;
  mutable rows : int;
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
  shared : (slots * Query.Compiled.t * slot list) option;
      (* the slot table, the definition compiled with its shared
         subplans as slot relations, and the slots it reads *)
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
  { view; auxes; projectors; compiled; initial = cache; storage;
    shared = None }

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

let advance _t cache changes = Query.Delta.apply cache changes

(* ---- shared subplans ---- *)

let rec has_join = function
  | Query.Algebra.Join _ -> true
  | Base _ -> false
  | Select (_, e) | Project (_, e) | Rename (_, e) -> has_join e
  | Union (a, b) -> has_join a || has_join b
  | Group_by g -> has_join g.input

let children = function
  | Query.Algebra.Base _ -> []
  | Select (_, e) | Project (_, e) | Rename (_, e) -> [ e ]
  | Join (a, b) | Union (a, b) -> [ a; b ]
  | Group_by g -> [ g.input ]

let slot_deps slots_by_name e =
  List.filter_map
    (fun b -> Hashtbl.find_opt slots_by_name b)
    (Query.Algebra.base_relations e)

(* The base relations whose pre-state the delta rules read: the operands
   of a join and the inputs of a [Group_by]. The rules are linear in
   every other operator, which only passes deltas through. *)
let rec pre_reads ?(under = false) = function
  | Query.Algebra.Base name -> if under then [ name ] else []
  | Select (_, e) | Project (_, e) | Rename (_, e) -> pre_reads ~under e
  | Union (a, b) -> pre_reads ~under a @ pre_reads ~under b
  | Join (a, b) -> pre_reads ~under:true a @ pre_reads ~under:true b
  | Group_by g -> pre_reads ~under:true g.input

let share plans =
  List.iter
    (fun t ->
      if List.exists (fun (a : Derive.aux) -> not a.full) t.auxes then
        invalid_arg
          ("Selfmaint.Plan.share: " ^ Query.View.name t.view
         ^ " keeps projected auxiliaries; slots need full replicas"))
    plans;
  let canon t =
    let schemas = Database.schema t.initial in
    Query.Canon.canonical ~schemas
      (Query.Optimize.optimize ~schemas t.view.Query.View.def)
  in
  let defs = List.map (fun t -> (t, canon t)) plans in
  (* Tally every join-bearing subexpression by the views containing
     it. *)
  let tally : (Query.Algebra.t, string list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec visit name e =
    if has_join e then begin
      let r =
        match Hashtbl.find_opt tally e with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add tally e r;
          r
      in
      if not (List.mem name !r) then r := name :: !r
    end;
    List.iter (visit name) (children e)
  in
  List.iter (fun (t, def) -> visit (Query.View.name t.view) def) defs;
  (* Hashtbl order is unspecified; the structural sort makes slot names
     deterministic and puts a slot's strict subexpressions first. *)
  let shared =
    Hashtbl.fold
      (fun e refs acc ->
        if List.length !refs >= 2 then (e, List.rev !refs) :: acc else acc)
      tally []
    |> List.sort (fun (a, _) (b, _) ->
           Stdlib.compare
             (Query.Algebra.size a, a)
             (Query.Algebra.size b, b))
  in
  let names = Hashtbl.create 16 in
  List.iteri
    (fun i (e, _) -> Hashtbl.add names e (Printf.sprintf "#shared:%d" i))
    shared;
  (* Every maximal shared strict subexpression becomes a slot relation;
     [top] keeps a slot's own expression from matching itself. *)
  let rec rewrite ~top e =
    match if top then None else Hashtbl.find_opt names e with
    | Some name -> Query.Algebra.Base name
    | None -> (
      let go = rewrite ~top:false in
      match e with
      | Query.Algebra.Base _ -> e
      | Select (p, x) -> Select (p, go x)
      | Project (ns, x) -> Project (ns, go x)
      | Join (a, b) -> Join (go a, go b)
      | Union (a, b) -> Union (go a, go b)
      | Rename (m, x) -> Rename (m, go x)
      | Group_by g -> Group_by { g with input = go g.input })
  in
  let shared =
    List.map (fun (e, refs) -> (e, rewrite ~top:true e, refs)) shared
  in
  let roots = List.map (fun (t, def) -> (t, rewrite ~top:false def)) defs in
  (* Only a slot whose pre-state some delta rule reads keeps versions; the
     others are deltas only. *)
  let read =
    List.concat_map (fun (_, e, _) -> pre_reads e) shared
    @ List.concat_map (fun (_, e) -> pre_reads e) roots
  in
  let by_name = Hashtbl.create 16 in
  let lookup db name =
    match Hashtbl.find_opt by_name name with
    | Some s -> s.s_schema
    | None -> Database.schema db name
  in
  (* Initial contents through the dependencies' initial contents, so
     each shared join is evaluated once at most, and only when a read
     slot needs it: on the first demand, under the table lock like
     every later version. *)
  let initial_of = Hashtbl.create 16 in
  let all =
    List.map
      (fun (expr, rewritten, referrers) ->
        let s_name = Hashtbl.find names expr in
        let initial =
          (List.find
             (fun t -> List.mem (Query.View.name t.view) referrers)
             plans)
            .initial
        in
        let s_deps = slot_deps by_name rewritten in
        let s_plan =
          Query.Compiled.compile ~lookup:(lookup initial) rewritten
        in
        let contents =
          lazy
            (Query.Compiled.eval
               (List.fold_left
                  (fun db d ->
                    Database.add d.s_name
                      (Lazy.force (Hashtbl.find initial_of d.s_name))
                      db)
                  initial s_deps)
               s_plan)
        in
        Hashtbl.add initial_of s_name contents;
        let s_read = List.mem s_name read in
        let slot =
          { s_name; s_expr = expr; s_plan;
            s_schema = Query.Compiled.schema s_plan;
            s_bases = Query.Algebra.base_relations expr; s_deps;
            s_referrers = referrers; s_read;
            s_versions = (if s_read then [ (0, contents) ] else []);
            s_groups = Query.Compiled.no_groups; s_memo = Hashtbl.create 16 }
        in
        Hashtbl.add by_name s_name slot;
        slot)
      shared
  in
  let slots =
    { all; lock = Mutex.create (); completed = Hashtbl.create 8; hits = 0;
      misses = 0; rows = 0 }
  in
  let plans =
    List.map
      (fun (t, rewritten) ->
        match slot_deps by_name rewritten with
        | [] -> t
        | deps ->
          let root =
            Query.Compiled.compile ~lookup:(lookup t.initial) rewritten
          in
          { t with shared = Some (slots, root, deps) })
      roots
  in
  (plans, slots)

let has_slots t = Option.is_some t.shared

(* The newest version strictly before transaction [u]: the slot's
   pre-state for a demand at [u]. *)
let version_before slot u =
  match List.find_opt (fun (id, _) -> id < u) slot.s_versions with
  | Some (_, v) -> Lazy.force v
  | None -> invalid_arg "Selfmaint.Plan: no slot version before transaction"

let relevant slot changes =
  List.exists
    (fun r -> List.mem r slot.s_bases)
    (Query.Delta.changed_relations changes)

(* [pre] and [changes] with each of [deps] bound to its delta at [u] and,
   when its pre-state is read, its version before [u]. *)
let rec bind slots deps ~pre ~changes u =
  List.fold_left
    (fun (db, ch) d ->
      ( (if d.s_read then Database.add d.s_name (version_before d u) db
         else db),
        Query.Delta.add_change d.s_name (demand slots d ~pre ~changes u) ch ))
    (pre, changes) deps

(* The slot's delta at [u]: computed by the first demand (against the
   demanding plan's base pre-state, which every referrer shares on the
   slot's base relations), served from the memo to the others.
   Referrers demand their transactions in id order, so a miss at [u]
   always extends the newest version. *)
and demand slots slot ~pre ~changes u =
  if not (relevant slot changes) then Signed_bag.zero
  else
    match Hashtbl.find_opt slot.s_memo u with
    | Some d ->
      slots.hits <- slots.hits + 1;
      d
    | None ->
      slots.misses <- slots.misses + 1;
      let pre', changes' = bind slots slot.s_deps ~pre ~changes u in
      let d, groups =
        Query.Delta.step ~pre:pre' ~groups:slot.s_groups changes' slot.s_plan
      in
      if slot.s_read then begin
        let prev = snd (List.hd slot.s_versions) in
        let next =
          match Query.Delta.first_clamp ~pre changes with
          | None -> lazy (Relation.derive d (Lazy.force prev))
          | Some _ ->
            (* A clamped deletion: [d] is the summed delta's image, not
               the change, so the version is recomputed from the
               clamped post-state. *)
            Lazy.from_val
              (Query.Eval.eval (Query.Delta.apply pre changes) slot.s_expr)
        in
        slot.s_versions <- (u, next) :: slot.s_versions
      end;
      slot.s_groups <- groups;
      Hashtbl.replace slot.s_memo u d;
      slots.rows <- slots.rows + Signed_bag.size d;
      d

(* Drop what no referrer can demand again: once every referrer has
   stepped past [c], memo entries at ids <= c and versions older than
   the newest one at or below [c] are dead. *)
let prune slots =
  List.iter
    (fun slot ->
      let c =
        List.fold_left
          (fun acc v ->
            min acc
              (Option.value (Hashtbl.find_opt slots.completed v) ~default:0))
          max_int slot.s_referrers
      in
      let rec keep = function
        | [] -> []
        | ((id, _) as v) :: rest -> if id <= c then [ v ] else v :: keep rest
      in
      slot.s_versions <- keep slot.s_versions;
      Hashtbl.filter_map_inplace
        (fun id d -> if id <= c then None else Some d)
        slot.s_memo)
    slots.all

(* Slot demands are serialized and run sequentially: the lock holder
   never waits on the domain pool, where help-first scheduling could run
   another plan's step that takes the same lock on the same domain. The
   plan's own delta runs outside the lock on [exec]. *)
let step ?exec ?txn t ~pre ~groups changes =
  match t.shared with
  | None -> Query.Delta.step ?exec ~pre ~groups changes t.compiled
  | Some (slots, root, deps) ->
    let u =
      match txn with
      | Some u -> u
      | None -> invalid_arg "Selfmaint.Plan.step: a plan with slots needs ~txn"
    in
    Mutex.lock slots.lock;
    let pre, changes =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock slots.lock)
        (fun () ->
          let bound = bind slots deps ~pre ~changes u in
          let name = Query.View.name t.view in
          let last =
            Option.value (Hashtbl.find_opt slots.completed name) ~default:0
          in
          Hashtbl.replace slots.completed name (max last u);
          prune slots;
          bound)
    in
    Query.Delta.step ?exec ~pre ~groups changes root

type slot_stats = {
  slots : int;
  hits : int;
  misses : int;
  rows_maintained : int;
}

let slot_stats (s : slots) =
  Mutex.lock s.lock;
  let r =
    { slots = List.length s.all; hits = s.hits; misses = s.misses;
      rows_maintained = s.rows }
  in
  Mutex.unlock s.lock;
  r

let pp ppf t =
  Fmt.pf ppf "@[<v>selfmaint %s:@ %a@ aux %d rows / %d cells (replica %d/%d)@]"
    (Query.View.name t.view)
    (Fmt.list ~sep:Fmt.sp Derive.pp_aux)
    t.auxes t.storage.aux_rows t.storage.aux_cells t.storage.replica_rows
    t.storage.replica_cells
