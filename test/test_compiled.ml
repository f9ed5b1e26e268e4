(* Property tests for the performance kernel: the hash-partitioned join
   against the nested-loop reference, the compiled positional evaluator
   against the interpreted one, the hash delta rules against the naive
   delta rules, plans over memoized or derived columnar chunks and
   indexes against the interpreter over memo-free bags, and the VUT
   color indexes against a linear scan. Each
   suite runs >= 500 random cases; the naive paths are the oracles. *)

open Relational
open Query

let qcheck name gen prop = Helpers.qcheck ~count:500 name gen prop

(* Random join inputs: schemas sharing 0..2 attributes (zero shared
   attributes exercises the cross-product path), counted tuple lists with
   duplicate tuples and negative multiplicities (signed deltas join
   pre-state bags through the same kernel). *)
module Join_gen = struct
  open QCheck2.Gen

  let schemas =
    int_range 0 2 >>= fun n_shared ->
    int_range 1 2 >>= fun n_left ->
    int_range 1 2 >>= fun n_right ->
    let names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i) in
    return
      ( Helpers.int_schema (names "s" n_shared @ names "l" n_left),
        Helpers.int_schema (names "s" n_shared @ names "r" n_right) )

  let counted ~arity =
    list_size (int_range 0 10)
      (pair (Helpers.Gen.int_tuple ~arity ~range:3) (int_range (-3) 3))

  let t =
    schemas >>= fun (ls, rs) ->
    counted ~arity:(Schema.arity ls) >>= fun l ->
    counted ~arity:(Schema.arity rs) >>= fun r ->
    return (ls, rs, l, r)
end

(* The Delta_domain expression pool plus shapes it lacks: an
   empty-shared-attribute join (cross product), grouped aggregation and
   renaming, so the compiled paths for every node kind get exercised. *)
let expr_gen =
  let open Algebra in
  let extras =
    [ join (project [ "a0" ] (base "R0")) (project [ "a2" ] (base "R1"));
      group_by ~keys:[ "a1" ]
        ~aggregates:[ ("n", Count); ("s", Sum "a0"); ("m", Max "a2") ]
        (join (base "R0") (base "R1"));
      group_by ~keys:[]
        ~aggregates:[ ("n", Count); ("avg", Avg "a1") ]
        (base "R1");
      rename [ ("a0", "b0") ] (base "R0") ]
  in
  QCheck2.Gen.oneof
    [ Helpers.Delta_domain.expr_gen; QCheck2.Gen.oneofl extras ]

let eval_case_gen =
  QCheck2.Gen.(
    Helpers.Delta_domain.db_gen >>= fun db ->
    expr_gen >>= fun expr -> return (db, expr))

let delta_case_gen =
  QCheck2.Gen.(
    Helpers.Delta_domain.db_gen >>= fun db ->
    Helpers.Delta_domain.changes_gen db >>= fun updates ->
    expr_gen >>= fun expr -> return (db, updates, expr))

(* Two chained transactions: the second is generated against the state
   the first leaves, so both apply exactly. *)
let derived_delta_case_gen =
  QCheck2.Gen.(
    Helpers.Delta_domain.db_gen >>= fun db ->
    Helpers.Delta_domain.changes_gen db >>= fun updates1 ->
    let mid = List.fold_left Database.apply_update db updates1 in
    Helpers.Delta_domain.changes_gen mid >>= fun updates2 ->
    expr_gen >>= fun expr -> return (db, updates1, updates2, expr))

(* Random VUT event sequences. Events reference live rows by index so any
   generated sequence is valid; queries are then compared against the
   linear-scan reference ([earlier_with] / [rows]) for every view and a
   set of probe rows straddling the live rows, and every entry and row
   walk against a dense model that stores all three columns of every
   row. *)
module Vut_gen = struct
  open QCheck2.Gen

  let views = [ "V1"; "V2"; "V3" ]

  type event =
    | Add of bool * bool * bool  (* which views are in REL_i *)
    | Set of int * int * Mvc.Vut.color  (* live-row index, view index *)
    | State of int * int * int  (* live-row index, view index, state *)
    | Purge of int  (* live-row index *)

  let color = oneofl [ Mvc.Vut.White; Mvc.Vut.Red; Mvc.Vut.Gray; Mvc.Vut.Black ]

  let event =
    oneof
      [ map3 (fun a b c -> Add (a, b, c)) bool bool bool;
        map3 (fun i v c -> Set (i, v, c)) (int_range 0 50) (int_range 0 2) color;
        map3 (fun i v s -> State (i, v, s)) (int_range 0 50) (int_range 0 2)
          (int_range 0 3);
        map (fun i -> Purge i) (int_range 0 50) ]

  let events = list_size (int_range 0 40) event

  (* The table and its dense model: live rows ascending, each with one
     entry per view. *)
  let replay evs =
    let vut = Mvc.Vut.create ~views in
    let dense = ref [] in
    let next = ref 1 in
    let live_row i =
      match !dense with
      | [] -> None
      | rows -> Some (List.nth rows (i mod List.length rows))
    in
    let black : Mvc.Vut.entry = { color = Black; state = 0 } in
    List.iter
      (function
        | Add (a, b, c) ->
          let cells =
            Array.map
              (fun x -> if x then { black with color = White } else black)
              [| a; b; c |]
          in
          let rel =
            List.filteri (fun i _ -> cells.(i).color = White) views
          in
          Mvc.Vut.add_row vut ~row:!next ~rel;
          dense := !dense @ [ (!next, cells) ];
          incr next
        | Set (i, v, color) -> (
          match live_row i with
          | Some (row, cells) ->
            Mvc.Vut.set_color vut ~row ~view:(List.nth views v) color;
            cells.(v) <- { (cells.(v)) with color }
          | None -> ())
        | State (i, v, state) -> (
          match live_row i with
          | Some (row, cells) ->
            Mvc.Vut.set_state vut ~row ~view:(List.nth views v) state;
            cells.(v) <- { (cells.(v)) with state }
          | None -> ())
        | Purge i -> (
          match live_row i with
          | Some (row, _) ->
            Mvc.Vut.purge_row vut row;
            dense := List.filter (fun (r, _) -> r <> row) !dense
          | None -> ()))
      evs;
    (vut, !dense)
end

let vut_indexes_agree vut =
  let open Mvc.Vut in
  let rows = rows vut in
  let probes = 0 :: 1000 :: List.concat_map (fun r -> [ r; r + 1 ]) rows in
  let colored c r view = (entry vut ~row:r ~view).color = c in
  List.for_all
    (fun view ->
      List.for_all
        (fun row ->
          let reds_ref = earlier_with vut ~row ~view (fun e -> e.color = Red) in
          let whites_ref =
            earlier_with vut ~row ~view (fun e -> e.color = White)
          in
          earlier_reds vut ~row ~view = reds_ref
          && has_earlier_red vut ~row ~view = (reds_ref <> [])
          && first_earlier_white vut ~row ~view
             = (match whites_ref with [] -> None | w :: _ -> Some w)
          && next_red vut ~row ~view
             = (match List.filter (fun r -> r > row && colored Red r view) rows with
               | [] -> 0
               | r :: _ -> r)
          && white_rows_up_to vut ~view row
             = List.filter (fun r -> r <= row && colored White r view) rows)
        probes)
    Vut_gen.views
  (* The row walks against the per-view queries, on every live row. *)
  && List.for_all
       (fun row ->
         let red_views = List.filter (colored Red row) Vut_gen.views in
         let gray_nexts = ref [] and reds = ref [] in
         iter_gray_next_reds vut ~row (fun n -> gray_nexts := n :: !gray_nexts);
         ignore
           (for_all_reds vut ~row (fun ~col ~state ->
                reds := (List.nth Vut_gen.views col, state) :: !reds;
                true));
         has_blocked_red vut ~row
         = List.exists (fun view -> has_earlier_red vut ~row ~view) red_views
         && List.rev !gray_nexts
            = List.filter_map
                (fun view ->
                  if colored Gray row view then
                    match next_red vut ~row ~view with 0 -> None | n -> Some n
                  else None)
                Vut_gen.views
         && List.rev !reds
            = List.map (fun view -> (view, (entry vut ~row ~view).state)) red_views
         && List.for_all
              (fun view ->
                earlier_reds_at vut
                  ~col:(Option.get (List.find_index (String.equal view) Vut_gen.views))
                  ~row
                = earlier_reds vut ~row ~view)
              Vut_gen.views)
       rows

(* Every entry, counter, row walk and rendering of the sparse table
   against the dense model. *)
let vut_matches_dense vut dense =
  let open Mvc.Vut in
  let cols = List.mapi (fun col view -> (col, view)) Vut_gen.views in
  let count cells c =
    Array.fold_left (fun n (e : entry) -> if e.color = c then n + 1 else n) 0 cells
  in
  (* Live rows, ascending, that [from] admits and that are red in [col]. *)
  let red_rows col ~from =
    List.filter_map
      (fun (r, (cells : entry array)) ->
        if from r && cells.(col).color = Red then Some r else None)
      dense
  in
  let letter = function White -> "w" | Red -> "r" | Gray -> "g" | Black -> "b" in
  let dense_render show_state =
    String.concat "\n"
      (List.map
         (fun (row, cells) ->
           Printf.sprintf "U%d: %s" row
             (String.concat " "
                (List.map
                   (fun (col, view) ->
                     let e : entry = cells.(col) in
                     if show_state then
                       Printf.sprintf "%s=(%s,%d)" view (letter e.color) e.state
                     else Printf.sprintf "%s=%s" view (letter e.color))
                   cols)))
         dense)
  in
  rows vut = List.map fst dense
  && render vut = dense_render false
  && render ~show_state:true vut = dense_render true
  && List.for_all
       (fun (row, (cells : entry array)) ->
         let shown =
           List.filter_map
             (fun (col, view) ->
               let e = cells.(col) in
               if e.color = Black && e.state = 0 then None else Some (view, e))
             cols
         in
         let with_color c = List.filter (fun (col, _) -> cells.(col).color = c) cols in
         let visited = ref [] and gray_nexts = ref [] and reds = ref [] in
         ignore
           (exists_in_row vut ~row (fun view e ->
                visited := (view, e) :: !visited;
                false));
         iter_gray_next_reds vut ~row (fun n -> gray_nexts := n :: !gray_nexts);
         ignore
           (for_all_reds vut ~row (fun ~col ~state ->
                reds := (col, state) :: !reds;
                true));
         List.for_all
           (fun (col, view) -> entry vut ~row ~view = cells.(col))
           cols
         && white_count vut ~row = count cells White
         && red_count vut ~row = count cells Red
         && purgeable vut ~row = (count cells White = 0 && count cells Red = 0)
         && List.rev !visited = shown
         && List.rev (fold_row vut ~row (fun v e acc -> (v, e) :: acc) []) = shown
         && has_blocked_red vut ~row
            = List.exists
                (fun (col, _) -> red_rows col ~from:(fun r -> r < row) <> [])
                (with_color Red)
         && List.rev !gray_nexts
            = List.filter_map
                (fun (col, _) ->
                  match red_rows col ~from:(fun r -> r > row) with
                  | [] -> None
                  | n :: _ -> Some n)
                (with_color Gray)
         && List.rev !reds
            = List.map (fun (col, _) -> (col, cells.(col).state)) (with_color Red)
         && for_all_reds vut ~row (fun ~col:_ ~state:_ -> false)
            = (with_color Red = []))
       dense

let tests =
  [ qcheck "hash join == nested-loop join" Join_gen.t
      (fun (ls, rs, l, r) ->
        Signed_bag.equal
          (Signed_bag.of_list (Eval.join_counted ls rs l r))
          (Signed_bag.of_list (Eval.join_counted_naive ls rs l r)));
    (* Join-bearing plans evaluate and maintain on the columnar kernels,
       so these two oracles cover them against the interpreter. *)
    qcheck "compiled eval == interpreted eval" eval_case_gen
      (fun (db, expr) ->
        Bag.equal (Eval.eval_bag db expr) (Eval.eval_bag ~naive:true db expr));
    qcheck "hash delta == naive delta" delta_case_gen
      (fun (pre, updates, expr) ->
        let txn = Update.Transaction.make ~id:1 ~source:"s" updates in
        let changes = Delta.of_transaction txn in
        Signed_bag.equal
          (Delta.eval ~pre changes expr)
          (Delta.eval ~naive:true ~pre changes expr));
    qcheck "vut indexes == linear scan" Vut_gen.events
      (fun evs ->
        let vut, dense = Vut_gen.replay evs in
        vut_indexes_agree vut
        && vut_matches_dense vut dense
        &&
        (* [gray_reds] on every row, mirrored in the model. *)
        (List.iter
           (fun (row, cells) ->
             Mvc.Vut.gray_reds vut ~row;
             Array.iteri
               (fun i (e : Mvc.Vut.entry) ->
                 if e.color = Red then cells.(i) <- { e with color = Gray })
               cells)
           dense;
         vut_matches_dense vut dense && vut_indexes_agree vut));
    (* Memoized-columnar vs boxed oracles: a plan run over relations
       whose chunks and indexes are already memoized — reused by
       pointer, or carried across a version by [Relation.derive] — must
       agree with the interpreter over memo-free copies of the same
       bags. *)
    qcheck "columnar eval == boxed eval" eval_case_gen
      (fun (db, expr) ->
        let boxed = Database.map Relation.contents_only db in
        let first = Eval.eval_bag db expr in
        (* The second run reads the chunks the first one encoded. *)
        let memoized = Eval.eval_bag db expr in
        let want = Eval.eval_bag ~naive:true boxed expr in
        Bag.equal first want && Bag.equal memoized want);
    qcheck "columnar delta == boxed delta" derived_delta_case_gen
      (fun (pre, updates1, updates2, expr) ->
        let changes updates id =
          Delta.of_transaction
            (Update.Transaction.make ~id ~source:"s" updates)
        in
        let c1 = changes updates1 1 and c2 = changes updates2 2 in
        (* Warm [pre]'s indexes, then advance it the way a view
           manager's cache does, carrying them into the next version. *)
        ignore (Delta.eval ~pre c1 expr : Signed_bag.t);
        let derived =
          List.fold_left
            (fun db name ->
              Database.add name
                (Relation.derive (Delta.change_for c1 name)
                   (Database.find db name))
                db)
            pre (Database.names pre)
        in
        let boxed = Database.map Relation.contents_only (Delta.apply pre c1) in
        Database.equal derived boxed
        && Signed_bag.equal
             (Delta.eval ~pre:derived c2 expr)
             (Delta.eval ~naive:true ~pre:boxed c2 expr));
    qcheck "columnar join kernel == boxed join kernel" Join_gen.t
      (fun (ls, rs, l, r) ->
        let shared = Schema.common ls rs in
        let key_left = Schema.positions ls shared
        and key_right = Schema.positions rs shared in
        let right_extra =
          Schema.positions rs
            (List.filter (fun n -> not (List.mem n shared)) (Schema.names rs))
        in
        Signed_bag.equal
          (Columnar.to_signed
             (Columnar.join ~key_left ~key_right ~right_extra
                (Columnar.of_counted_list ~arity:(Schema.arity ls) l)
                (Columnar.of_counted_list ~arity:(Schema.arity rs) r)))
          (Signed_bag.of_list
             (Compiled.join_counted_pos ~key_left ~key_right ~right_extra l r))) ]
