(** Named view definitions.

    A view [V_x] at the warehouse is a named algebra expression over base
    relations; the name is the identifier that flows through the whole
    system (REL sets, VUT columns, action lists, warehouse store). *)

open Relational

type t = private { name : string; def : Algebra.t; bases : string list }
(** [bases] is [Algebra.base_relations def], computed once by {!make}. *)

val make : string -> Algebra.t -> t

val name : t -> string

val base_relations : t -> string list
(** The base relations of the definition, in first-occurrence order. O(1):
    stored by {!make}. *)

val schema : (string -> Schema.t) -> t -> Schema.t

val uses : t -> string -> bool
(** [uses v r] is true when base relation [r] appears in [v]'s definition.
    A scan of {!base_relations}, not of the definition. *)

val materialize : Database.t -> t -> Relation.t
(** Evaluate the view definition over a database state. *)

val overlaps : t -> t -> bool
(** True when the two views share a base relation — the condition under
    which updates may make them mutually inconsistent, and the edge
    relation used to partition merge processes (Section 6.1). *)

val pp : Format.formatter -> t -> unit
