open Query

type t = { rows : int list; actions : Action_list.t list }

let make ~rows actions = { rows = List.sort_uniq Int.compare rows; actions }

let views t =
  let seen = Hashtbl.create 8 in
  let add rev (al : Action_list.t) =
    if Hashtbl.mem seen al.view then rev
    else begin
      Hashtbl.add seen al.view ();
      al.view :: rev
    end
  in
  List.rev (List.fold_left add [] t.actions)

let last_row t = List.fold_left Int.max 0 t.rows

let depends_on later earlier =
  let earlier_views = views earlier in
  List.exists (fun v -> List.mem v earlier_views) (views later)

let batch wts =
  { rows = List.sort_uniq Int.compare (List.concat_map (fun w -> w.rows) wts);
    actions = List.concat_map (fun w -> w.actions) wts }

let action_count t =
  List.fold_left (fun acc al -> acc + Action_list.action_count al) 0 t.actions

let pp ppf t =
  Fmt.pf ppf "WT{rows=[%a]; %a}"
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    t.rows
    (Fmt.list ~sep:(Fmt.any "; ") Action_list.pp)
    t.actions
