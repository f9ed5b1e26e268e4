(** Autonomous data sources and the serializable source schedule.

    Section 2.1 of the paper assumes source transactions are serializable
    and equivalent to a schedule [U_1; U_2; ... U_f]; the *source state
    sequence* [ss_0, ss_1, ..., ss_f] lists the base data after each commit.
    This module owns all base relations, partitions them over named sources,
    executes transactions serially (assigning the global sequence number),
    and keeps [ss_0] and the transaction log. Every source state — the
    ground truth the consistency oracle compares warehouse states against —
    is a function of those two and is replayed on demand ({!states}), so
    the memory a run keeps grows with the log, not with a snapshot per
    commit.

    In the base model each transaction updates one relation of one source;
    multi-update and multi-source transactions (Section 6.2) are supported
    by passing several updates to {!execute}. *)

open Relational

type t

type spec = { source : string; relation : string; init : Relation.t }
(** Declares that [relation], initialized to [init], lives at [source]. *)

exception Unknown_source of string

exception Ownership_violation of string
(** A single-source transaction touched a relation owned elsewhere. *)

val create : spec list -> t
(** @raise Schema.Duplicate_attribute never; raises [Invalid_argument] if a
    relation name is declared twice. *)

val source_names : t -> string list

val relation_names : t -> string list

val relations_of : t -> string -> string list
(** Relations owned by a source. @raise Unknown_source if absent. *)

val owner : t -> string -> string
(** Owning source of a relation.
    @raise Database.Unknown_relation if the relation is not declared. *)

val schema : t -> string -> Schema.t

val schema_lookup : t -> string -> Schema.t
(** Same as {!schema}; shaped for {!Query.Algebra.schema_of}. *)

val current : t -> Database.t
(** The latest global source state (all base relations). *)

val initial : t -> Database.t
(** [ss_0]. *)

val execute : t -> ?source:string -> Update.t list -> Update.Transaction.t
(** Execute a transaction: apply its updates atomically, assign the next
    global id (ids start at 1), append it to the log (extending the state
    sequence by one state) and return the stamped transaction.
    When [source] is given, every update must touch a relation of that
    source ({!Ownership_violation} otherwise); when omitted, the
    transaction may span sources and is attributed to the owner of its
    first update.
    @raise Invalid_argument on an empty update list, and, naming the
    relation and tuple, when applying the updates in order would delete
    a tuple the relation does not hold at that point
    ({!Query.Delta.first_clamp}). *)

val last_id : t -> int
(** Id of the latest transaction; 0 before any commit. *)

val transactions : t -> Update.Transaction.t list
(** Committed transactions, oldest first. *)

val states : t -> Database.t list
(** [ss_0 ... ss_f], oldest first; length is [last_id t + 1]. Rebuilt on
    each call by folding {!Database.apply_transaction} — the function
    {!execute} applies — over {!transactions} from [ss_0]: O(f) database
    updates, and consecutive states share the relations a transaction
    leaves untouched. *)

val state : t -> int -> Database.t
(** [state t i] is [ss_i], replaying the first [i] transactions (O(f) to
    read the log, O(i) updates); prefer {!states} to walk the sequence.
    @raise Invalid_argument when out of range. *)

val query : t -> Query.Algebra.t -> Relation.t
(** Evaluate a query against the *current* source state — the paper's
    "queries back to the sources" performed by view managers. Because
    sources are autonomous, the answer may already reflect updates the
    caller has not yet processed; Strobe-style managers compensate. *)
