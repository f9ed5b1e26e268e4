(* Open-addressing hash index keyed on interned key-column ids.

   Rows live in flat parallel arrays (boxed tuple + count + the key's
   value ids, flattened); the table stores chain heads (row + 1, 0 =
   empty) with linear probing between distinct keys and an intra-key
   [next] chain. Probing therefore costs an int-mix of the key ids and
   a handful of int compares — no per-probe tuple hashing or boxed key
   allocation. Counts may be negative (signed deltas index fine).

   An index is that flat table (the base) plus an overlay: a persistent
   map from key ids to the entries of the key whose count differs from
   the base's. Built indexes have an empty overlay. [derive] records
   each change in a new overlay that shares all but O(|delta| log k)
   nodes with its parent's and the base by pointer, so every version of
   a maintained relation keeps its own index without copying a row;
   once the overlay reaches a quarter of the base it is folded into a
   fresh flat table. A table is never edited once built, so no
   version's probes ever change. *)

type flat = {
  key_pos : int array;
  karity : int;
  mutable tups : Tuple.t array;
  mutable counts : int array;
  mutable keys : int array;  (* flat: row * karity + c *)
  mutable n : int;  (* rows *)
  mutable slots : int array;  (* chain heads: row + 1; 0 = empty *)
  mutable next : int array;
  mutable used : int;  (* occupied slots (distinct keys) *)
}

(* An overlaid entry: the tuple's count in this version (0 = deleted)
   and the base row it overrides, or -1 when the base holds no live row
   for the tuple. An entry never repeats the base's count. *)
type over = { otup : Tuple.t; ocount : int; orow : int }

module Key_map = Map.Make (struct
  type t = int array

  let compare (a : int array) b =
    let n = Array.length a in
    let rec go c =
      if c >= n then 0
      else
        let d = Int.compare a.(c) b.(c) in
        if d <> 0 then d else go (c + 1)
    in
    go 0
end)

type t = {
  base : flat;
  over : over list Key_map.t;
  n_over : int;  (* overlaid entries *)
  live_delta : int;  (* live entries minus the base's *)
}

let dummy_tuple = Tuple.of_list []

let hash_ids ids off karity =
  let h = ref 0x9e3779b9 in
  for c = 0 to karity - 1 do
    h := (!h * 486187739) + ids.(off + c)
  done;
  !h land max_int

let row_hash b row = hash_ids b.keys (row * b.karity) b.karity

let keys_equal_rows b a r =
  let ka = a * b.karity and kb = r * b.karity in
  let rec go c =
    c >= b.karity || (b.keys.(ka + c) = b.keys.(kb + c) && go (c + 1))
  in
  go 0

let keys_equal_probe b row (ids : int array) =
  let k = row * b.karity in
  let rec go c = c >= b.karity || (b.keys.(k + c) = ids.(c) && go (c + 1)) in
  go 0

let create ~key_pos cap =
  let cap = max cap 8 in
  let scap =
    let rec up n = if n >= 2 * cap then n else up (2 * n) in
    up 16
  in
  { key_pos; karity = Array.length key_pos;
    tups = Array.make cap dummy_tuple; counts = Array.make cap 0;
    keys = Array.make (cap * Array.length key_pos + 1) 0; n = 0;
    slots = Array.make scap 0; next = Array.make cap (-1); used = 0 }

(* Link [row] into the table: linear-probe for its key's slot. *)
let link b row =
  let mask = Array.length b.slots - 1 in
  let h = ref (row_hash b row land mask) in
  let placed = ref false in
  while not !placed do
    let head = b.slots.(!h) in
    if head = 0 then begin
      b.slots.(!h) <- row + 1;
      b.next.(row) <- -1;
      b.used <- b.used + 1;
      placed := true
    end
    else if keys_equal_rows b (head - 1) row then begin
      b.next.(row) <- head - 1;
      b.slots.(!h) <- row + 1;
      placed := true
    end
    else h := (!h + 1) land mask
  done

let rehash b =
  let scap = 2 * Array.length b.slots in
  b.slots <- Array.make scap 0;
  b.used <- 0;
  for row = 0 to b.n - 1 do
    link b row
  done

let grow_rows b =
  let cap = 2 * Array.length b.tups in
  let tups = Array.make cap dummy_tuple in
  Array.blit b.tups 0 tups 0 b.n;
  b.tups <- tups;
  let counts = Array.make cap 0 in
  Array.blit b.counts 0 counts 0 b.n;
  b.counts <- counts;
  let keys = Array.make (cap * b.karity + 1) 0 in
  Array.blit b.keys 0 keys 0 (b.n * b.karity);
  b.keys <- keys;
  let next = Array.make cap (-1) in
  Array.blit b.next 0 next 0 b.n;
  b.next <- next

(* Append a new row (not yet linked). *)
let push_row b tup count =
  if b.n = Array.length b.tups then grow_rows b;
  let row = b.n in
  b.tups.(row) <- tup;
  b.counts.(row) <- count;
  let k = row * b.karity in
  for c = 0 to b.karity - 1 do
    b.keys.(k + c) <- Value.intern (Tuple.get tup b.key_pos.(c))
  done;
  b.n <- row + 1;
  if 2 * b.used >= Array.length b.slots then rehash b;
  link b row

let add b tup n = if n <> 0 then push_row b tup n

let of_flat base = { base; over = Key_map.empty; n_over = 0; live_delta = 0 }

let of_counted ~key_pos entries =
  let b = create ~key_pos (List.length entries) in
  List.iter (fun (tup, n) -> add b tup n) entries;
  of_flat b

let of_bag ~key_pos bag =
  let b = create ~key_pos (Bag.distinct bag) in
  Bag.iter (fun tup n -> add b tup n) bag;
  of_flat b

(* Chain head for the key given as interned ids, or -1. *)
let find_head b (ids : int array) =
  let mask = Array.length b.slots - 1 in
  let s = ref (hash_ids ids 0 b.karity land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let head = b.slots.(!s) in
    if head = 0 then res := -1
    else if keys_equal_probe b (head - 1) ids then res := head - 1
    else s := (!s + 1) land mask
  done;
  !res

let key_ids b tup =
  Array.map (fun p -> Value.intern (Tuple.get tup p)) b.key_pos

let overlaid t ids =
  if t.n_over = 0 then []
  else match Key_map.find_opt ids t.over with Some l -> l | None -> []

let rec overrides row = function
  | [] -> false
  | o :: rest -> o.orow = row || overrides row rest

(* The base chain minus the rows the key's overlay overrides, then the
   overlay's live entries. *)
let fold_ids t ids f acc =
  let b = t.base and ovs = overlaid t ids in
  let rec go row acc =
    if row < 0 then acc
    else
      go b.next.(row)
        (if overrides row ovs then acc
         else f b.tups.(row) b.counts.(row) acc)
  in
  let acc = go (find_head b ids) acc in
  match ovs with
  | [] -> acc
  | _ ->
    List.fold_left
      (fun acc o -> if o.ocount = 0 then acc else f o.otup o.ocount acc)
      acc ovs

let find t key =
  fold_ids t (Tuple.intern key) (fun tup n acc -> (tup, n) :: acc) []

let key_of t tup = Tuple.project_pos t.base.key_pos tup

let find_matching t tup = find t (key_of t tup)

(* Every live entry: the base rows no overlay entry overrides, then the
   overlay's live entries. *)
let iter_live t f =
  let b = t.base in
  let overridden = Array.make (if t.n_over = 0 then 0 else b.n) false in
  Key_map.iter
    (fun _ ovs ->
      List.iter (fun o -> if o.orow >= 0 then overridden.(o.orow) <- true) ovs)
    t.over;
  for row = 0 to b.n - 1 do
    if not (t.n_over > 0 && overridden.(row)) then
      f b.tups.(row) b.counts.(row)
  done;
  Key_map.iter
    (fun _ ovs -> List.iter (fun o -> if o.ocount <> 0 then f o.otup o.ocount) ovs)
    t.over

(* Live groups, rebuilt by scan (test/debug surface, not a hot path). *)
let groups t =
  let heads = Hashtbl.create (t.base.used + 1) in
  iter_live t (fun tup n ->
      let key = key_of t tup in
      let existing =
        match Hashtbl.find_opt heads key with Some l -> l | None -> []
      in
      Hashtbl.replace heads key ((tup, n) :: existing));
  Hashtbl.fold (fun key entries acc -> (key, entries) :: acc) heads []

let n_keys t = List.length (groups t)

(* ---- Derivation ---- *)

let flattens_counter = Atomic.make 0

let flattens () = Atomic.get flattens_counter

let live_rows t = t.base.n + t.live_delta

let flatten t =
  Atomic.incr flattens_counter;
  let b = create ~key_pos:t.base.key_pos (live_rows t) in
  iter_live t (add b);
  of_flat b

(* The live base row holding [tup] in the chain of [ids], or -1. *)
let base_row b ids tup =
  let rec go row =
    if row < 0 then -1
    else if Tuple.equal b.tups.(row) tup then row
    else go b.next.(row)
  in
  go (find_head b ids)

(* One tuple's step, as [Signed_bag.apply] takes it: an insertion adds,
   a deletion removes and floors the count at zero. *)
let derive_entry b tup n ((over, n_over, live_delta) as acc) =
  let ids = key_ids b tup in
  let ovs = match Key_map.find_opt ids over with Some l -> l | None -> [] in
  let old, row, rest =
    match List.partition (fun o -> Tuple.equal o.otup tup) ovs with
    | o :: _, rest -> (o.ocount, o.orow, rest)
    | [], _ ->
      let row = base_row b ids tup in
      ((if row < 0 then 0 else b.counts.(row)), row, ovs)
  in
  let now = if n > 0 then old + n else max 0 (old + n) in
  if now = old then acc
  else begin
    let in_base = if row < 0 then 0 else b.counts.(row) in
    let ovs' =
      if now = in_base then rest else { otup = tup; ocount = now; orow = row } :: rest
    in
    ( (match ovs' with
      | [] -> Key_map.remove ids over
      | _ -> Key_map.add ids ovs' over),
      n_over - List.length ovs + List.length ovs',
      live_delta + Bool.to_int (now <> 0) - Bool.to_int (old <> 0) )
  end

let derive t delta =
  if Signed_bag.is_zero delta then t
  else begin
    let b = t.base in
    let over, n_over, live_delta =
      Signed_bag.fold (derive_entry b) delta (t.over, t.n_over, t.live_delta)
    in
    if over == t.over then t
    else begin
      let d = { base = b; over; n_over; live_delta } in
      (* Probes pay O(log k) per key for the overlay, and the base rows
         it overrides stay allocated; a quarter of the base bounds both
         and amortizes the O(n) rebuild over the n/4 derivations that
         filled the overlay. *)
      if n_over >= 16 && 4 * n_over >= b.n then flatten d else d
    end
  end

type occupancy = { rows : int; live : int; slots : int; overlay : int }

let occupancy t =
  { rows = t.base.n; live = live_rows t; slots = Array.length t.base.slots;
    overlay = t.n_over }
