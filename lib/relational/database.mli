(** A database state: a finite map from relation names to {!Relation.t}.

    Used both for source base data (a source state [ss_i] in the paper is
    the database holding every base relation across all sources) and as the
    local caches kept by view managers. Persistent, so consecutive states
    of a source state sequence share every relation a transaction leaves
    untouched. *)

type t

exception Unknown_relation of string

val empty : t

val add : string -> Relation.t -> t -> t
(** Add or replace a relation binding. *)

val of_list : (string * Relation.t) list -> t

val find : t -> string -> Relation.t
(** @raise Unknown_relation if absent. *)

val find_opt : t -> string -> Relation.t option

val mem : t -> string -> bool

val schema : t -> string -> Schema.t
(** @raise Unknown_relation if absent. *)

val map : (Relation.t -> Relation.t) -> t -> t
(** Apply [f] to every relation, keeping the names. *)

val names : t -> string list

val restrict : t -> string list -> t
(** Keep only the named relations (absent names ignored). *)

val apply_update : t -> Update.t -> t
(** @raise Unknown_relation if the target relation is absent. *)

val apply_transaction : t -> Update.Transaction.t -> t

val apply_relevant : t -> Update.Transaction.t -> t
(** Like {!apply_transaction}, but updates on relations absent from this
    database are skipped instead of raising — what a view manager's
    partial base-data cache needs when a multi-relation transaction
    (Section 6.2) touches relations outside the view. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
