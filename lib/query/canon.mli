(** Canonical normal form + hash-consing of algebra expressions.

    Makes syntactically different but semantically identical view
    subexpressions — commuted natural joins, reordered selection
    conjuncts, stacked selections/projections, selections pushed into
    join operands (the {!Optimize} rewrite, undone locally so the bare
    join is the shareable core) — structurally equal, so
    {!Selfmaint.Plan.share} can hash-cons them into one slot and the
    physically-keyed {!Compiled.compile_memo} shares their compiled
    plans. Column permutations introduced by operand reordering are
    bridged with explicit permutation [Project]s hoisted above the
    reordered operator, keeping the whole rewrite schema-preserving. *)

open Relational

val normalize_pred : Pred.t -> Pred.t
(** Flatten [And]/[Or] chains, sort and deduplicate their operands
    structurally. Semantics-preserving for our two-valued evaluation. *)

val normalize : schemas:(string -> Schema.t) -> Algebra.t -> Algebra.t
(** [normalize ~schemas e] returns an expression with the same bag
    semantics and the same output schema (names, order, types) as [e],
    in which commutative operands are structurally ordered, predicates
    are in {!normalize_pred} form, and bridging permutation [Project]s
    sit as high as possible. Idempotent. [schemas] must resolve every
    base relation [e] mentions. *)

val intern : Algebra.t -> Algebra.t
(** Hash-cons: returns the physical representative of a structurally
    equal expression, interning every subexpression (bounded global
    table, thread-safe). Interned expressions share compiled plans via
    {!Compiled.compile_memo}'s physical keying. *)

val canonical : schemas:(string -> Schema.t) -> Algebra.t -> Algebra.t
(** [intern] of [normalize]. *)
