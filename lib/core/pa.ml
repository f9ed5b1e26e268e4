module Int_set = Set.Make (Int)

type stats = {
  rels_received : int;
  als_received : int;
  wts_emitted : int;
  empty_rels : int;
  max_live_rows : int;
  max_rows_per_wt : int;
}

type t = {
  vut : Vut.t;
  emit : Warehouse.Wt.t -> unit;
  pending : (int, Query.Action_list.t list) Hashtbl.t;
  watermark : (string, int) Hashtbl.t;
      (* Last action-list state received per view; states from one view
         manager must strictly increase. *)
  mutable apply_rows : Int_set.t;
  mutable held : int;
  mutable rels_received : int;
  mutable als_received : int;
  mutable wts_emitted : int;
  mutable empty_rels : int;
  mutable max_live_rows : int;
  mutable max_rows_per_wt : int;
}

let create ~views ~emit () =
  { vut = Vut.create ~views; emit; pending = Hashtbl.create 64;
    watermark = Hashtbl.create 16; apply_rows = Int_set.empty; held = 0; rels_received = 0;
    als_received = 0; wts_emitted = 0; empty_rels = 0; max_live_rows = 0;
    max_rows_per_wt = 0 }

let vut t = t.vut

let held_action_lists t = t.held

let quiescent t = Vut.row_count t.vut = 0 && t.held = 0

let stats t =
  { rels_received = t.rels_received; als_received = t.als_received;
    wts_emitted = t.wts_emitted; empty_rels = t.empty_rels;
    max_live_rows = t.max_live_rows; max_rows_per_wt = t.max_rows_per_wt }

let buffered t row =
  match Hashtbl.find_opt t.pending row with Some als -> als | None -> []

(* Collection phase of ProcessRow (Lines 1-5 of Algorithm 2): accumulate
   into [apply_rows] the closure of rows that must be applied together with
   [i], returning false as soon as some required row cannot be applied
   (action list missing, or REL not yet arrived).

   The closure rules are the paper's: (Line 4) for every red entry of the
   row, every earlier red entry in the same column joins — lists from one
   view manager reach the warehouse in generation order; (Line 5) every
   forward state pointer joins — a batched list is applied atomically with
   all the rows it covers.

   Deviation from the paper's pseudocode, which places the application
   (Lines 6-7) inside the recursive procedure: a recursive invocation that
   completes would apply the accumulated set before its *callers* have run
   their own Line-5 checks, tearing a batch whose pointer had not been
   chased yet. We therefore only collect here and apply once, at the top
   level, after the whole closure is validated. On the paper's own
   Example 5 both readings coincide; see test/test_pa.ml for a regression
   case where they differ. *)
let rec collect t i =
  if Int_set.mem i t.apply_rows then true
  else if not (Vut.has_row t.vut i) then false
  else if Vut.white_count t.vut ~row:i > 0 then false
  else begin
    t.apply_rows <- Int_set.add i t.apply_rows;
    Vut.for_all_reds t.vut ~row:i (fun ~col ~state:_ ->
        List.for_all (collect t) (Vut.earlier_reds_at t.vut ~col ~row:i))
    && Vut.for_all_reds t.vut ~row:i (fun ~col:_ ~state ->
           state <= i || collect t state)
  end

(* Lines 6-10 of Algorithm 2: gray the closure, emit it as one warehouse
   transaction, rescan for newly enabled rows, purge. *)
let rec apply_closure t =
  let rows = Int_set.elements t.apply_rows in
  t.apply_rows <- Int_set.empty;
  List.iter (fun j -> Vut.gray_reds t.vut ~row:j) rows;
  let actions = List.concat_map (fun j -> buffered t j) rows in
  List.iter
    (fun j ->
      t.held <- t.held - List.length (buffered t j);
      Hashtbl.remove t.pending j)
    rows;
  t.wts_emitted <- t.wts_emitted + 1;
  t.max_rows_per_wt <- max t.max_rows_per_wt (List.length rows);
  t.emit (Warehouse.Wt.make ~rows actions);
  (* Line 9: applying may enable later rows; each rescan is a fresh
     top-level attempt. A row can only have become appliable because a
     cell of this closure went red -> gray in one of its columns, so the
     rescan probes nextRed from the closure's own gray cells instead of
     scanning the whole table: any extra target the full scan would have
     produced is either already purged or still blocked, and no-ops. *)
  let targets = ref [] in
  List.iter
    (fun row ->
      Vut.iter_gray_next_reds t.vut ~row (fun next -> targets := next :: !targets))
    rows;
  List.iter (top_process_row t) (List.sort_uniq Int.compare !targets);
  (* Line 10: only the closure's rows can have newly become purgeable
     (every cell gray or black after Line 6), so purge exactly those —
     descendant rescans purge their own closures. *)
  List.iter
    (fun row ->
      if Vut.has_row t.vut row && Vut.purgeable t.vut ~row then
        Vut.purge_row t.vut row)
    rows

and top_process_row t i =
  t.apply_rows <- Int_set.empty;
  if Vut.has_row t.vut i then
    if collect t i then apply_closure t else t.apply_rows <- Int_set.empty

(* Procedure ProcessAction(AL^x_j), Algorithm 2. *)
let process_action t (al : Query.Action_list.t) =
  let entry = Vut.entry t.vut ~row:al.state ~view:al.view in
  (match entry.color with
  | Vut.White -> ()
  | Vut.Red | Vut.Gray | Vut.Black ->
    raise
      (Vut.Protocol_error
         (Printf.sprintf
            "PA: unexpected action list for row %d view %s (entry not white)"
            al.state al.view)));
  List.iter
    (fun i' ->
      Vut.set_color t.vut ~row:i' ~view:al.view Vut.Red;
      Vut.set_state t.vut ~row:i' ~view:al.view al.state)
    (Vut.white_rows_up_to t.vut ~view:al.view al.state);
  top_process_row t al.state

let receive_rel t ~row ~rel:views =
  t.rels_received <- t.rels_received + 1;
  if views = [] then t.empty_rels <- t.empty_rels + 1
  else begin
    Vut.add_row t.vut ~row ~rel:views;
    t.max_live_rows <- max t.max_live_rows (Vut.row_count t.vut);
    List.iter (process_action t) (buffered t row)
  end

let check_watermark t (al : Query.Action_list.t) =
  let last =
    match Hashtbl.find_opt t.watermark al.view with Some s -> s | None -> 0
  in
  if al.state <= last then
    raise
      (Vut.Protocol_error
         (Printf.sprintf
            "PA: action list for view %s at state %d arrived at or below \
             the previous state %d"
            al.view al.state last));
  Hashtbl.replace t.watermark al.view al.state

let receive_action_list t (al : Query.Action_list.t) =
  check_watermark t al;
  t.als_received <- t.als_received + 1;
  t.held <- t.held + 1;
  let existing = buffered t al.state in
  Hashtbl.replace t.pending al.state (existing @ [ al ]);
  if Vut.has_row t.vut al.state then process_action t al
