type color = White | Red | Gray | Black

type entry = { color : color; state : int }

exception Protocol_error of string

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type cell = { col : int; mutable color : color; mutable state : int }

(* A row stores cells only for the columns its REL created (and any
   column set since), ascending by column; an absent column reads as
   Black with state 0. Black cells never change in SPA or PA, so a row
   costs O(|REL_i|) to build, walk and purge, however many views the
   table has. Each live row also carries completion counters — how many
   of its cells are currently white / red — so the per-row guards the
   merge algorithms ask on every message ("does this row still wait for
   a list", "is this row fully received") are O(1). *)
type row = { mutable cells : cell array; mutable n_white : int; mutable n_red : int }

(* Besides the row-major table the VUT keeps, per column (view), the sorted
   sets of row numbers currently white and currently red. Every merge guard
   — "is an earlier list from this manager still unapplied", "which rows
   does a batched list cover", nextRed — is a query against one of these
   sets, so SPA/PA event handling costs O(log live-rows) per guard instead
   of a scan of the whole table. The sets are maintained by add_row /
   set_color / purge_row; [earlier_with] keeps the linear scan as the
   reference the indexes are property-tested against. *)
type t = {
  view_order : string array;
  view_index : (string, int) Hashtbl.t;
  mutable table : row Int_map.t;
  whites : Int_set.t array; (* per column: rows whose entry is white *)
  reds : Int_set.t array; (* per column: rows whose entry is red *)
}

let protocol_error fmt = Fmt.kstr (fun s -> raise (Protocol_error s)) fmt

let create ~views =
  let view_index = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      if Hashtbl.mem view_index v then
        invalid_arg (Printf.sprintf "Vut.create: duplicate view %s" v);
      Hashtbl.add view_index v i)
    views;
  let n = List.length views in
  { view_order = Array.of_list views; view_index; table = Int_map.empty;
    whites = Array.make n Int_set.empty; reds = Array.make n Int_set.empty }

let views t = Array.to_list t.view_order

let index t view =
  match Hashtbl.find_opt t.view_index view with
  | Some i -> i
  | None -> protocol_error "unknown view %s" view

let track_color t ~row ~col old_color new_color =
  (match old_color with
  | White -> t.whites.(col) <- Int_set.remove row t.whites.(col)
  | Red -> t.reds.(col) <- Int_set.remove row t.reds.(col)
  | Gray | Black -> ());
  match new_color with
  | White -> t.whites.(col) <- Int_set.add row t.whites.(col)
  | Red -> t.reds.(col) <- Int_set.add row t.reds.(col)
  | Gray | Black -> ()

let bump r old_color new_color =
  (match old_color with
  | White -> r.n_white <- r.n_white - 1
  | Red -> r.n_red <- r.n_red - 1
  | Gray | Black -> ());
  match new_color with
  | White -> r.n_white <- r.n_white + 1
  | Red -> r.n_red <- r.n_red + 1
  | Gray | Black -> ()

let add_row t ~row ~rel =
  if Int_map.mem row t.table then protocol_error "row %d already exists" row;
  let cells =
    Array.map
      (fun v -> { col = index t v; color = White; state = 0 })
      (Array.of_list rel)
  in
  (* The integrator's REL is in view order already; sort (and drop
     duplicates) only when a caller's is not. *)
  let ascending = ref true in
  for i = 1 to Array.length cells - 1 do
    if cells.(i - 1).col >= cells.(i).col then ascending := false
  done;
  let cells =
    if !ascending then cells
    else
      Array.of_list
        (List.sort_uniq (fun a b -> Int.compare a.col b.col) (Array.to_list cells))
  in
  Array.iter (fun c -> track_color t ~row ~col:c.col Black White) cells;
  t.table <-
    Int_map.add row { cells; n_white = Array.length cells; n_red = 0 } t.table

let has_row t row = Int_map.mem row t.table

let rows t = List.map fst (Int_map.bindings t.table)

let row_count t = Int_map.cardinal t.table

let find_row t row =
  match Int_map.find_opt row t.table with
  | None -> protocol_error "row %d is not in the VUT" row
  | Some r -> r

(* First position in [cells.(lo) .. cells.(hi - 1)] whose column is
   >= [col]; the cells ascend by column. *)
let rec lower_bound cells col lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cells.(mid).col < col then lower_bound cells col (mid + 1) hi
    else lower_bound cells col lo mid

(* Position of column [col] among the row's stored cells, or -1. *)
let slot r col =
  let n = Array.length r.cells in
  let i = lower_bound r.cells col 0 n in
  if i < n && r.cells.(i).col = col then i else -1

(* Insert a Black, state-0 cell for the absent column [col]. *)
let insert r col =
  let c = { col; color = Black; state = 0 } in
  let n = Array.length r.cells in
  let i = lower_bound r.cells col 0 n in
  r.cells <-
    Array.concat [ Array.sub r.cells 0 i; [| c |]; Array.sub r.cells i (n - i) ];
  c

let absent : entry = { color = Black; state = 0 }

let entry_of (c : cell) : entry = { color = c.color; state = c.state }

let entry_at r col =
  match slot r col with -1 -> absent | i -> entry_of r.cells.(i)

let entry t ~row ~view =
  let col = index t view in
  entry_at (find_row t row) col

let set_color t ~row ~view color =
  let col = index t view in
  let r = find_row t row in
  match slot r col with
  | -1 when color = Black -> ()
  | i ->
    let c = if i < 0 then insert r col else r.cells.(i) in
    if c.color <> color then begin
      track_color t ~row ~col c.color color;
      bump r c.color color;
      c.color <- color
    end

let set_state t ~row ~view state =
  let col = index t view in
  let r = find_row t row in
  match slot r col with
  | -1 when state = 0 -> ()
  | -1 -> (insert r col).state <- state
  | i -> r.cells.(i).state <- state

let white_count t ~row = (find_row t row).n_white

let red_count t ~row = (find_row t row).n_red

(* An entry the row walks skip: Black with state 0, what an absent
   column reads as. *)
let is_default (c : cell) = c.color = Black && c.state = 0

let exists_in_row t ~row f =
  Array.exists
    (fun c -> (not (is_default c)) && f t.view_order.(c.col) (entry_of c))
    (find_row t row).cells

let fold_row t ~row f init =
  Array.fold_left
    (fun acc c ->
      if is_default c then acc else f t.view_order.(c.col) (entry_of c) acc)
    init (find_row t row).cells

(* Row walks: one row lookup, then the stored cells by column — the per-row
   loops of SPA and PA, without a row lookup and a view-name hash per
   cell. *)

let red_before t ~col row =
  match Int_set.min_elt_opt t.reds.(col) with
  | Some i -> i < row
  | None -> false

let next_red_at t ~col row =
  match Int_set.find_first_opt (fun i -> i > row) t.reds.(col) with
  | Some i -> i
  | None -> 0

let has_blocked_red t ~row =
  let r = find_row t row in
  r.n_red > 0
  && Array.exists (fun c -> c.color = Red && red_before t ~col:c.col row) r.cells

let gray_reds t ~row =
  let r = find_row t row in
  Array.iter
    (fun c ->
      if c.color = Red then begin
        track_color t ~row ~col:c.col Red Gray;
        bump r Red Gray;
        c.color <- Gray
      end)
    r.cells

let iter_gray_next_reds t ~row f =
  Array.iter
    (fun c ->
      if c.color = Gray then begin
        let next = next_red_at t ~col:c.col row in
        if next <> 0 then f next
      end)
    (find_row t row).cells

let for_all_reds t ~row f =
  Array.for_all
    (fun c -> c.color <> Red || f ~col:c.col ~state:c.state)
    (find_row t row).cells

let earlier_reds_at t ~col ~row =
  let below, _, _ = Int_set.split row t.reds.(col) in
  Int_set.elements below

let earlier_with t ~row ~view pred =
  let col = index t view in
  Int_map.fold
    (fun i r acc -> if i < row && pred (entry_at r col) then i :: acc else acc)
    t.table []
  |> List.rev

let earlier_reds t ~row ~view = earlier_reds_at t ~col:(index t view) ~row

let has_earlier_red t ~row ~view = red_before t ~col:(index t view) row

let first_earlier_white t ~row ~view =
  let col = index t view in
  match Int_set.min_elt_opt t.whites.(col) with
  | Some i when i < row -> Some i
  | _ -> None

let next_red t ~row ~view = next_red_at t ~col:(index t view) row

let purge_row t row =
  (match Int_map.find_opt row t.table with
  | None -> ()
  | Some r ->
    Array.iter (fun c -> track_color t ~row ~col:c.col c.color Black) r.cells);
  t.table <- Int_map.remove row t.table

let purgeable t ~row =
  let r = find_row t row in
  r.n_white = 0 && r.n_red = 0

let white_rows_up_to t ~view i =
  let col = index t view in
  let below, _, _ = Int_set.split (i + 1) t.whites.(col) in
  Int_set.elements below

let color_letter = function
  | White -> "w"
  | Red -> "r"
  | Gray -> "g"
  | Black -> "b"

let render_row t ?(show_state = false) row =
  let r = find_row t row in
  let render_cell i view =
    let e = entry_at r i in
    if show_state then
      Printf.sprintf "%s=(%s,%d)" view (color_letter e.color) e.state
    else Printf.sprintf "%s=%s" view (color_letter e.color)
  in
  Printf.sprintf "U%d: %s" row
    (String.concat " " (Array.to_list (Array.mapi render_cell t.view_order)))

let render ?show_state t =
  String.concat "\n" (List.map (render_row t ?show_state) (rows t))
