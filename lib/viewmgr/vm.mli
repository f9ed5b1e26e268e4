(** View managers (Section 3.3).

    Each warehouse view is maintained by its own concurrent view manager
    process — the architectural heart of the paper (Figure 1): "each view
    is under the control of a separate process, [so] it is very easy to use
    different maintenance algorithms for each view". A manager receives the
    sub-sequence of source transactions relevant to its view (in order) and
    emits action lists to the merge process (in order).

    The consistency {!level} a manager guarantees determines which merge
    algorithm the system needs (Section 6.3): SPA needs all managers
    [Complete]; [Strongly_consistent] and [Complete_n] managers need PA;
    [Convergent] managers force the pass-through merge.

    Concrete managers are built by {!Plan_vm} (complete, batching and
    complete-N maintenance over a replica or self-maintaining plan),
    {!Derived_vm}, {!Strobe_vm}, {!Periodic_vm} and {!Convergent_vm};
    they all produce this record-of-closures, so the system assembly is
    manager-agnostic. *)

type level =
  | Complete
      (** One action list per relevant update; the view passes through
          every consistent state. *)
  | Strongly_consistent
      (** May batch intertwined updates; every emitted state is
          consistent, but intermediate states can be skipped. *)
  | Convergent
      (** Only the final state is guaranteed; intermediate warehouse
          states may be inconsistent. *)
  | Complete_n of int
      (** Processes exactly N updates at a time (Section 6.3). *)

type t = {
  view : Query.View.t;
  level : level;
  receive : Relational.Update.Transaction.t -> unit;
      (** Deliver the next relevant transaction (or, for managers with
          [needs_ticks], any transaction), in integrator order. *)
  flush : unit -> unit;
      (** Force out any batched work at end of run (no-op for managers
          that never hold work indefinitely). *)
  needs_ticks : bool;
      (** True when the manager must see {e every} transaction, relevant
          or not, to track the global sequence number (Strobe-style
          managers use this to decide when a queried source answer is
          covered by the updates received so far). *)
  pending : unit -> int;
      (** Transactions received but not yet reflected in an emitted action
          list. *)
}

val name : t -> string

val level_name : level -> string

val pp_level : Format.formatter -> level -> unit
