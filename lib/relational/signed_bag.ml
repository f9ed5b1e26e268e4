module Tuple_map = Map.Make (Tuple)

(* Invariant: every stored multiplicity is non-zero. *)
type t = int Tuple_map.t

let zero = Tuple_map.empty

let is_zero = Tuple_map.is_empty

let count t tup =
  match Tuple_map.find_opt tup t with Some n -> n | None -> 0

let add tup n t =
  if n = 0 then t
  else
    Tuple_map.update tup
      (function
        | None -> Some n
        | Some m when m + n = 0 -> None
        | Some m -> Some (m + n))
      t

let singleton tup n = add tup n zero

let of_list entries =
  List.fold_left (fun acc (tup, n) -> add tup n acc) zero entries

let to_list t = Tuple_map.bindings t

let insertions t =
  Tuple_map.fold
    (fun tup n acc -> if n > 0 then Bag.add ~count:n tup acc else acc)
    t Bag.empty

let deletions t =
  Tuple_map.fold
    (fun tup n acc -> if n < 0 then Bag.add ~count:(-n) tup acc else acc)
    t Bag.empty

let of_parts ~insert ~delete =
  let with_inserts =
    Bag.fold (fun tup n acc -> add tup n acc) insert zero
  in
  Bag.fold (fun tup n acc -> add tup (-n) acc) delete with_inserts

(* Empty operands short-circuit before any closure or fold allocates:
   per-transaction maintenance sums and applies a zero delta for every
   view a transaction is irrelevant to. *)
let sum a b =
  if is_zero b then a else if is_zero a then b
  else Tuple_map.fold (fun tup n acc -> add tup n acc) b a

let negate t = Tuple_map.map (fun n -> -n) t

let diff_of_bags ~before ~after =
  let added = Bag.fold (fun tup n acc -> add tup n acc) after zero in
  Bag.fold (fun tup n acc -> add tup (-n) acc) before added

let apply t bag =
  if is_zero t then bag
  else
    Tuple_map.fold
      (fun tup n acc ->
        if n > 0 then Bag.add ~count:n tup acc
        else Bag.remove ~count:(-n) tup acc)
      t bag

let applies_exactly t bag =
  Tuple_map.for_all (fun tup n -> n > 0 || Bag.count bag tup >= -n) t

(* [apply] floors at zero, so applying a sum of deltas need not equal
   applying them one by one: a removal that overshoots loses the deficit,
   and a later insertion cannot restore it. The first tuple whose running
   prefix sum dips below its multiplicity in the pre-state is where the
   sequence clamps. *)
let first_clamp deltas ~bag =
  let exception Clamped of Tuple.t in
  let running = ref Tuple_map.empty in
  let step tup n =
    let r =
      n + (match Tuple_map.find_opt tup !running with Some r -> r | None -> 0)
    in
    running := Tuple_map.add tup r !running;
    if n < 0 && r < 0 && Bag.count bag tup + r < 0 then raise (Clamped tup)
  in
  try
    List.iter (Tuple_map.iter step) deltas;
    None
  with Clamped tup -> Some tup

(* A single delta is trivially its own sum. *)
let coalesce deltas ~bag =
  match deltas with
  | [] -> Some zero
  | [ d ] -> Some d
  | _ ->
    if Option.is_some (first_clamp deltas ~bag) then None
    else Some (List.fold_left sum zero deltas)

let map f t =
  Tuple_map.fold (fun tup n acc -> add (f tup) n acc) t zero

let filter p t = Tuple_map.filter (fun tup _ -> p tup) t

let fold f t init = Tuple_map.fold f t init

let size t = Tuple_map.fold (fun _ n acc -> acc + abs n) t 0

let equal a b = Tuple_map.equal Int.equal a b

let pp ppf t =
  let pp_entry ppf (tup, n) = Fmt.pf ppf "%+d%a" n Tuple.pp tup in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_entry) (to_list t)

let to_string t = Fmt.str "%a" pp t
