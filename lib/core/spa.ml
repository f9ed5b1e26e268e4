type stats = {
  rels_received : int;
  als_received : int;
  wts_emitted : int;
  empty_rels : int;
  max_live_rows : int;
  runs_emitted : int;
  max_run_rows : int;
}

type t = {
  vut : Vut.t;
  emit : Warehouse.Wt.t -> unit;
  pending : (int, Query.Action_list.t list) Hashtbl.t;
      (* WT_i: buffered action lists per row, in arrival order. *)
  watermark : (string, int) Hashtbl.t;
      (* Last action-list state received per view; states from one view
         manager must strictly increase (FIFO generation order). *)
  mutable held : int;
  mutable rels_received : int;
  mutable als_received : int;
  mutable wts_emitted : int;
  mutable empty_rels : int;
  mutable max_live_rows : int;
  mutable run_rows : int;
      (* Rows emitted by the cascade currently in flight (the ready run a
         single incoming message unlocked via nextRed chains). *)
  mutable runs_emitted : int;
  mutable max_run_rows : int;
}

let create ~views ~emit () =
  { vut = Vut.create ~views; emit; pending = Hashtbl.create 64;
    watermark = Hashtbl.create 16; held = 0;
    rels_received = 0; als_received = 0; wts_emitted = 0; empty_rels = 0;
    max_live_rows = 0; run_rows = 0; runs_emitted = 0; max_run_rows = 0 }

let vut t = t.vut

let held_action_lists t = t.held

let quiescent t = Vut.row_count t.vut = 0 && t.held = 0

let stats t =
  { rels_received = t.rels_received; als_received = t.als_received;
    wts_emitted = t.wts_emitted; empty_rels = t.empty_rels;
    max_live_rows = t.max_live_rows; runs_emitted = t.runs_emitted;
    max_run_rows = t.max_run_rows }

let buffered t row =
  match Hashtbl.find_opt t.pending row with Some als -> als | None -> []

(* Procedure ProcessRow(i), Algorithm 1. *)
let rec process_row t i =
  if Vut.has_row t.vut i then begin
    (* Line 1: some action list of the row has not arrived. The per-row
       completion counter answers this in O(1) — no column scan. *)
    let some_white = Vut.white_count t.vut ~row:i > 0 in
    (* Line 2: an earlier action list from the same view manager is still
       unapplied; lists must reach the warehouse in generation order. A row
       with no red cells cannot be blocked, so the counter short-circuits
       the per-column index probes. *)
    let blocked_by_earlier = Vut.has_blocked_red t.vut ~row:i in
    if not (some_white || blocked_by_earlier) then begin
      (* Line 3: red -> gray. *)
      Vut.gray_reds t.vut ~row:i;
      (* Line 4: apply WT_i as a single warehouse transaction. *)
      let actions = buffered t i in
      Hashtbl.remove t.pending i;
      t.held <- t.held - List.length actions;
      t.wts_emitted <- t.wts_emitted + 1;
      t.run_rows <- t.run_rows + 1;
      t.emit (Warehouse.Wt.make ~rows:[ i ] actions);
      (* Line 5: applying this row may enable later rows. *)
      Vut.iter_gray_next_reds t.vut ~row:i (process_row t);
      (* Line 6: purge. *)
      Vut.purge_row t.vut i
    end
  end

(* Procedure ProcessAction(AL^x_i), Algorithm 1. *)
let process_action t (al : Query.Action_list.t) =
  let entry = Vut.entry t.vut ~row:al.state ~view:al.view in
  (match entry.color with
  | Vut.White -> ()
  | Vut.Red | Vut.Gray | Vut.Black ->
    raise
      (Vut.Protocol_error
         (Printf.sprintf
            "SPA: unexpected action list for row %d view %s (entry not white)"
            al.state al.view)));
  (* Gap detection: with complete managers and FIFO channels, every
     relevant earlier row's list arrives before this one; an earlier white
     entry in this column can only mean a lost message. Applying this list
     anyway would put the view's operations out of generation order —
     detect the loss instead of corrupting the warehouse. *)
  (match Vut.first_earlier_white t.vut ~row:al.state ~view:al.view with
  | None -> ()
  | Some missing ->
    raise
      (Vut.Protocol_error
         (Printf.sprintf
            "SPA: action list for row %d view %s arrived while row %d is \
             still waiting for the same manager (lost message?)"
            al.state al.view missing)));
  Vut.set_color t.vut ~row:al.state ~view:al.view Vut.Red;
  process_row t al.state

(* One incoming message unlocks at most one cascade of emissions (a ready
   run); close it out so run lengths feed the merge batch histogram. *)
let finish_run t =
  if t.run_rows > 0 then begin
    t.runs_emitted <- t.runs_emitted + 1;
    t.max_run_rows <- max t.max_run_rows t.run_rows;
    t.run_rows <- 0
  end

let receive_rel t ~row ~rel:views =
  t.rels_received <- t.rels_received + 1;
  if views = [] then
    (* A transaction relevant to no view: nothing will ever arrive for it,
       and no warehouse work is needed. *)
    t.empty_rels <- t.empty_rels + 1
  else begin
    Vut.add_row t.vut ~row ~rel:views;
    t.max_live_rows <- max t.max_live_rows (Vut.row_count t.vut);
    List.iter (process_action t) (buffered t row);
    finish_run t
  end

let check_watermark t (al : Query.Action_list.t) =
  let last =
    match Hashtbl.find_opt t.watermark al.view with Some s -> s | None -> 0
  in
  if al.state <= last then
    raise
      (Vut.Protocol_error
         (Printf.sprintf
            "SPA: action list for view %s at state %d arrived at or below \
             the previous state %d"
            al.view al.state last));
  Hashtbl.replace t.watermark al.view al.state

let receive_action_list t (al : Query.Action_list.t) =
  check_watermark t al;
  t.als_received <- t.als_received + 1;
  t.held <- t.held + 1;
  let existing = buffered t al.state in
  Hashtbl.replace t.pending al.state (existing @ [ al ]);
  if Vut.has_row t.vut al.state then begin
    process_action t al;
    finish_run t
  end
