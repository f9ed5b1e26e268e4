(* Columnar relational storage: a relation snapshot as flat per-column
   arrays of interned value ids ({!Value.intern}) with multiplicities in
   a parallel array. The hot kernels — hash join, selection scans,
   signed-delta probes — run as tight int-array loops over this layout,
   with output rows appended into batch-allocated (doubling, arena
   style) chunk builders instead of consing per row. Conversions to and
   from the boxed {!Bag}/{!Signed_bag} world happen only at operator
   boundaries; results are normalized there, so row order inside a chunk
   carries no meaning. *)

type t = {
  arity : int;
  len : int;  (* rows; cols.(i) and mult may be longer (builder slack) *)
  cols : int array array;  (* arity arrays of value ids, column-major *)
  mult : int array;  (* per-row multiplicity, non-zero (signed ok) *)
  total : int;  (* sum of multiplicities *)
}

(* Chunk snapshots built from boxed bags, process-wide. MVCC retention
   shares chunk pointers across versions; this counter is how tests and
   benches observe that unchanged relations are not re-encoded. *)
let builds_counter = Atomic.make 0

let chunk_builds () = Atomic.get builds_counter

let arity t = t.arity

let length t = t.len

let total t = t.total

let empty ~arity =
  { arity; len = 0; cols = Array.make (max arity 1) [||]; mult = [||];
    total = 0 }

(* ------------------------------------------------------------------ *)
(* Batch-allocated chunk builder.                                     *)

module Builder = struct
  type b = {
    b_arity : int;
    mutable cap : int;
    mutable n : int;
    mutable bcols : int array array;
    mutable bmult : int array;
    mutable btotal : int;
  }

  let create ?(cap = 64) arity =
    let cap = max cap 8 in
    { b_arity = arity; cap; n = 0;
      bcols = Array.init (max arity 1) (fun _ -> Array.make cap 0);
      bmult = Array.make cap 0; btotal = 0 }

  let grow b =
    let cap = 2 * b.cap in
    b.bcols <-
      Array.map
        (fun col ->
          let c = Array.make cap 0 in
          Array.blit col 0 c 0 b.n;
          c)
        b.bcols;
    let m = Array.make cap 0 in
    Array.blit b.bmult 0 m 0 b.n;
    b.bmult <- m;
    b.cap <- cap

  let reserve b = if b.n = b.cap then grow b

  (* [push_row b ids n]: append one row. [ids] is read, not retained. *)
  let push_row b ids n =
    if n <> 0 then begin
      reserve b;
      let row = b.n in
      for c = 0 to b.b_arity - 1 do
        b.bcols.(c).(row) <- ids.(c)
      done;
      b.bmult.(row) <- n;
      b.btotal <- b.btotal + n;
      b.n <- row + 1
    end

  let length b = b.n

  (* The finished chunk keeps the builder's arrays (slack included) —
     no trailing copy. The builder must not be pushed to afterwards. *)
  let finish b =
    { arity = b.b_arity; len = b.n; cols = b.bcols; mult = b.bmult;
      total = b.btotal }
end

(* ------------------------------------------------------------------ *)
(* Conversions.                                                       *)

let of_counted_seq ~arity fold_fn =
  let b = Builder.create arity in
  fold_fn (fun (tup : Tuple.t) n ->
      Builder.reserve b;
      let row = b.Builder.n in
      for c = 0 to arity - 1 do
        b.Builder.bcols.(c).(row) <- Value.intern (Tuple.get tup c)
      done;
      b.Builder.bmult.(row) <- n;
      b.Builder.btotal <- b.Builder.btotal + n;
      b.Builder.n <- row + 1);
  Builder.finish b

let arity_of_bag bag =
  match Bag.to_counted_list bag with
  | (tup, _) :: _ -> Tuple.arity tup
  | [] -> 0

let of_bag ?arity bag =
  Atomic.incr builds_counter;
  let arity = match arity with Some a -> a | None -> arity_of_bag bag in
  of_counted_seq ~arity (fun push -> Bag.iter push bag)

let of_signed ?(arity = -1) sb =
  let arity =
    if arity >= 0 then arity
    else
      match Signed_bag.to_list sb with
      | (tup, _) :: _ -> Tuple.arity tup
      | [] -> 0
  in
  of_counted_seq ~arity (fun push ->
      Signed_bag.fold (fun tup n () -> push tup n) sb ())

let of_counted_list ~arity entries =
  of_counted_seq ~arity (fun push ->
      List.iter (fun (tup, n) -> push tup n) entries)

(* Decode row [row] to a boxed tuple. *)
let decode_row t row =
  let a = Array.make t.arity Value.Null in
  for c = 0 to t.arity - 1 do
    a.(c) <- Value.of_id t.cols.(c).(row)
  done;
  (* [a] is fresh — install it directly as the tuple's storage. *)
  Tuple.of_array a

let to_bag t =
  let acc = ref Bag.empty in
  for row = 0 to t.len - 1 do
    acc := Bag.add ~count:t.mult.(row) (decode_row t row) !acc
  done;
  !acc

let to_signed t =
  let acc = ref Signed_bag.zero in
  for row = 0 to t.len - 1 do
    acc := Signed_bag.add (decode_row t row) t.mult.(row) !acc
  done;
  !acc

(* Unmerged counted rows (duplicate tuples may repeat; callers
   normalize through Bag/Signed_bag). *)
let to_counted_list t =
  let acc = ref [] in
  for row = t.len - 1 downto 0 do
    acc := (decode_row t row, t.mult.(row)) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Scans.                                                             *)

(* Zero-copy projection: column pointers are shared, rows unmerged
   (duplicate projected rows keep separate multiplicities — exact under
   bag semantics once normalized downstream). *)
let project positions t =
  { arity = Array.length positions; len = t.len;
    cols =
      (if Array.length positions = 0 then [| [||] |]
       else Array.map (fun p -> t.cols.(p)) positions);
    mult = t.mult; total = t.total }

let get t c row = t.cols.(c).(row)

let mult t row = t.mult.(row)

let filter ~keep t =
  let b = Builder.create ~cap:(max 8 (t.len / 2)) t.arity in
  for row = 0 to t.len - 1 do
    if keep row then begin
      Builder.reserve b;
      let out = b.Builder.n in
      for c = 0 to t.arity - 1 do
        b.Builder.bcols.(c).(out) <- t.cols.(c).(row)
      done;
      b.Builder.bmult.(out) <- t.mult.(row);
      b.Builder.btotal <- b.Builder.btotal + t.mult.(row);
      b.Builder.n <- out + 1
    end
  done;
  Builder.finish b

let append a b =
  if a.arity <> b.arity then invalid_arg "Columnar.append: arity mismatch";
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let len = a.len + b.len in
    let cols =
      Array.init (max a.arity 1) (fun c ->
          let col = Array.make len 0 in
          if a.arity > 0 then begin
            Array.blit a.cols.(c) 0 col 0 a.len;
            Array.blit b.cols.(c) 0 col a.len b.len
          end;
          col)
    in
    let mult = Array.make len 0 in
    Array.blit a.mult 0 mult 0 a.len;
    Array.blit b.mult 0 mult a.len b.len;
    { arity = a.arity; len; cols; mult; total = a.total + b.total }
  end

(* ------------------------------------------------------------------ *)
(* Hash join kernel.                                                  *)

(* Multiplicative mixing of key ids; the result only feeds table sizing
   and shard routing, never anything trace-visible. *)
let key_hash t key_pos row =
  let h = ref 0x9e3779b9 in
  for c = 0 to Array.length key_pos - 1 do
    let id = t.cols.(key_pos.(c)).(row) in
    h := (!h * 486187739) + id
  done;
  !h land max_int

let keys_equal build bkey brow probe pkey prow =
  let k = Array.length bkey in
  let rec go c =
    c >= k
    || build.cols.(bkey.(c)).(brow) = probe.cols.(pkey.(c)).(prow) && go (c + 1)
  in
  go 0

(* Open-addressing hash over the build side's key columns: [slots]
   holds chain heads (row + 1; 0 = empty), [next] intra-key chains.
   Distinct keys linear-probe past each other; rows with equal keys
   share one slot. *)
type hash = { ht : t; hkey : int array; slots : int array; next : int array }

let build_hash ht hkey =
  let cap =
    let rec up n = if n >= 2 * ht.len + 1 then n else up (2 * n) in
    up 16
  in
  let mask = cap - 1 in
  let slots = Array.make cap 0 and next = Array.make ht.len (-1) in
  for row = 0 to ht.len - 1 do
    let h = ref (key_hash ht hkey row land mask) in
    let placed = ref false in
    while not !placed do
      let head = slots.(!h) in
      if head = 0 then begin
        slots.(!h) <- row + 1;
        placed := true
      end
      else if keys_equal ht hkey (head - 1) ht hkey row then begin
        next.(row) <- head - 1;
        slots.(!h) <- row + 1;
        placed := true
      end
      else h := (!h + 1) land mask
    done
  done;
  { ht; hkey; slots; next }

(* Head row of the chain matching [probe]'s key at [prow], or -1. *)
let hash_find h probe pkey prow =
  let mask = Array.length h.slots - 1 in
  let s = ref (key_hash probe pkey prow land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let head = h.slots.(!s) in
    if head = 0 then res := -1
    else if keys_equal h.ht h.hkey (head - 1) probe pkey prow then
      res := head - 1
    else s := (!s + 1) land mask
  done;
  !res

(* [join ~key_left ~key_right ~right_extra l r]: hash join; output rows
   are always [left ++ right_extra] and multiplicities multiply. Builds
   on the smaller side, probes with the larger — identical to the boxed
   kernel's plan shape. *)
let join ~key_left ~key_right ~right_extra l r =
  let out_arity = l.arity + Array.length right_extra in
  if l.len = 0 || r.len = 0 then empty ~arity:out_arity
  else begin
    let b = Builder.create ~cap:(max 16 (max l.len r.len)) out_arity in
    let emit lrow rrow =
      let n = l.mult.(lrow) * r.mult.(rrow) in
      if n <> 0 then begin
        Builder.reserve b;
        let out = b.Builder.n in
        for c = 0 to l.arity - 1 do
          b.Builder.bcols.(c).(out) <- l.cols.(c).(lrow)
        done;
        for c = 0 to Array.length right_extra - 1 do
          b.Builder.bcols.(l.arity + c).(out) <- r.cols.(right_extra.(c)).(rrow)
        done;
        b.Builder.bmult.(out) <- n;
        b.Builder.btotal <- b.Builder.btotal + n;
        b.Builder.n <- out + 1
      end
    in
    if r.len <= l.len then begin
      let h = build_hash r key_right in
      for lrow = 0 to l.len - 1 do
        let rrow = ref (hash_find h l key_left lrow) in
        while !rrow >= 0 do
          emit lrow !rrow;
          rrow := h.next.(!rrow)
        done
      done
    end
    else begin
      let h = build_hash l key_left in
      for rrow = 0 to r.len - 1 do
        let lrow = ref (hash_find h r key_right rrow) in
        while !lrow >= 0 do
          emit !lrow rrow;
          lrow := h.next.(!lrow)
        done
      done
    end;
    Builder.finish b
  end

(* Partition rows by key-id hash so matching keys land in the same
   shard on both sides; used by the sharded parallel join. *)
let hash_partition ~shards ~key_pos t =
  let builders =
    Array.init shards (fun _ ->
        Builder.create ~cap:(max 8 (t.len / shards)) t.arity)
  in
  for row = 0 to t.len - 1 do
    let s = key_hash t key_pos row mod shards in
    let b = builders.(s) in
    Builder.reserve b;
    let out = b.Builder.n in
    for c = 0 to t.arity - 1 do
      b.Builder.bcols.(c).(out) <- t.cols.(c).(row)
    done;
    b.Builder.bmult.(out) <- t.mult.(row);
    b.Builder.btotal <- b.Builder.btotal + t.mult.(row);
    b.Builder.n <- out + 1
  done;
  Array.map Builder.finish builders
