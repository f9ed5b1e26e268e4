(** Columnar relational storage: flat per-column arrays of interned
    value ids with a parallel multiplicity array.

    A value of type [t] is an immutable chunk — one snapshot of a bag or
    signed bag. Chunks are built once (batch-allocated, doubling
    builders; no per-row consing) and then only read; MVCC versions that
    retain the same relation share the chunk by pointer. Row order
    inside a chunk carries no meaning: every consumer normalizes through
    {!Bag}/{!Signed_bag} at operator boundaries, so no result depends
    on the order rows were stored in. *)

type t

val chunk_builds : unit -> int
(** Chunks encoded from boxed bags since process start (monotone) — the
    observable for chunk-pointer sharing: an unchanged relation served
    across many versions encodes once. *)

val arity : t -> int

val length : t -> int
(** Number of stored rows (distinct-ness is not guaranteed after
    projections or joins; multiplicities of duplicate rows add on
    normalization). *)

val total : t -> int
(** Sum of multiplicities (signed). *)

val empty : arity:int -> t

(** {1 Conversions} *)

val of_bag : ?arity:int -> Bag.t -> t

val of_signed : ?arity:int -> Signed_bag.t -> t

val of_counted_list : arity:int -> (Tuple.t * int) list -> t

val to_bag : t -> Bag.t
(** Decode and normalize. Every multiplicity must be positive. *)

val to_signed : t -> Signed_bag.t

val to_counted_list : t -> (Tuple.t * int) list
(** Decoded rows, unmerged (duplicate tuples may repeat). *)

val decode_row : t -> int -> Tuple.t

val get : t -> int -> int -> int
(** [get t col row] is the value id at [(col, row)]. *)

val mult : t -> int -> int
(** [mult t row] is the row's multiplicity. *)

(** {1 Scans} *)

val project : int array -> t -> t
(** Zero-copy positional projection: column pointers are shared. *)

val filter : keep:(int -> bool) -> t -> t
(** Rows for which [keep row] holds, in order. *)

val append : t -> t -> t
(** Bag union (rows concatenated; multiplicities untouched). *)

(** {1 Join kernel} *)

val join :
  key_left:int array -> key_right:int array -> right_extra:int array ->
  t -> t -> t
(** Hash join on precomputed key positions: builds an open-addressing
    id-keyed table over the smaller side, probes with the larger. Output
    rows are [left ++ right_extra]; multiplicities multiply (either side
    may be signed). *)

val hash_partition : shards:int -> key_pos:int array -> t -> t array
(** Partition rows by join-key hash. Matching keys of two sides
    partitioned with their respective key positions land in the same
    shard, so shards join independently. *)

(** {1 Builders} *)

module Builder : sig
  type b

  val create : ?cap:int -> int -> b
  (** [create arity]: an empty builder; capacity doubles as needed. *)

  val push_row : b -> int array -> int -> unit
  (** [push_row b ids n] appends a row of value ids with multiplicity
      [n] ([n = 0] rows are dropped). [ids] is copied, not retained. *)

  val length : b -> int

  val finish : b -> t
  (** The built chunk (adopts the builder's arrays; do not push after
      finishing). *)
end
