(** Signed bags: tuples with non-zero integer multiplicities.

    Signed bags are the currency of incremental view maintenance: the delta
    of a bag-valued expression is a signed bag (positive counts are
    insertions, negative counts deletions), and deltas compose by pointwise
    addition. Applying a delta to a {!Bag.t} yields the post-state. *)

type t

val zero : t

val is_zero : t -> bool

val count : t -> Tuple.t -> int

val add : Tuple.t -> int -> t -> t
(** [add tup n t] adds [n] (possibly negative) to the multiplicity of [tup];
    entries reaching zero are dropped. [n = 0] is a no-op. *)

val singleton : Tuple.t -> int -> t

val of_list : (Tuple.t * int) list -> t

val to_list : t -> (Tuple.t * int) list
(** Entries in tuple order; all counts non-zero. *)

val insertions : t -> Bag.t
(** The positive part. *)

val deletions : t -> Bag.t
(** The negated negative part (as positive multiplicities). *)

val of_parts : insert:Bag.t -> delete:Bag.t -> t
(** [of_parts ~insert ~delete] is [insert - delete]. *)

val sum : t -> t -> t
(** Pointwise addition. *)

val negate : t -> t

val diff_of_bags : before:Bag.t -> after:Bag.t -> t
(** The delta that transforms [before] into [after]. *)

val apply : t -> Bag.t -> Bag.t
(** [apply delta bag] adds the delta to [bag]. Negative counts remove
    multiplicity; a resulting multiplicity below zero is floored at zero
    (applying a delta computed by {!diff_of_bags} to its [before] never
    floors). *)

val applies_exactly : t -> Bag.t -> bool
(** True when applying [delta] to [bag] would not floor any multiplicity,
    i.e. the delta's deletions are all present. *)

val first_clamp : t list -> bag:Bag.t -> Tuple.t option
(** [first_clamp deltas ~bag] is the first tuple (in sequence order) at
    which applying [deltas] to [bag] one by one would floor a
    multiplicity at zero ({!apply}'s clamp), or [None] when the sequence
    applies exactly — and then its sum does too. For a single delta,
    [first_clamp [d] ~bag = None] iff [applies_exactly d bag]. *)

val coalesce : t list -> bag:Bag.t -> t option
(** [coalesce deltas ~bag] is [Some] of the pointwise sum of [deltas]
    when applying the sum to [bag] is guaranteed to equal applying the
    deltas one by one in order — i.e. no intermediate application would
    floor a multiplicity at zero ({!apply}'s clamp). [None] means the
    sum may be unfaithful and the caller must fall back to sequential
    application. [coalesce [] ~bag = Some zero]; a singleton always
    coalesces to itself. *)

val map : (Tuple.t -> Tuple.t) -> t -> t

val filter : (Tuple.t -> bool) -> t -> t

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val size : t -> int
(** Sum of absolute multiplicities. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
