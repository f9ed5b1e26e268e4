(** One warehouse shard: a complete, self-contained MVC pipeline.

    A shard owns the views assigned to it and runs its own merge process
    (SPA over its own VUT), one {!Viewmgr.Complete_vm} per view, a
    commit submitter over a private {!Warehouse.Store}, a
    {!Serve.Version_manager} publishing every commit (the shard's leg of
    any cross-shard global cut), and — optionally — a write-ahead log
    recording each WT before the store applies it. This is the paper's
    §6.1 / Figure 3 shape: multiple cooperating merge processes, each
    responsible for a disjoint view family, never coordinating because
    the router guarantees no update spans shards.

    The merge is a single-threaded server: REL rows and action lists are
    handled one at a time, each costing a sampled merge latency — the
    per-shard bottleneck the distributed benchmark measures. *)

type t

val create :
  engine:Sim.Engine.t ->
  id:int ->
  views:Query.View.t list ->
  initial:Relational.Database.t ->
  compute_latency:(unit -> float) ->
  merge_latency:(unit -> float) ->
  commit_latency:(unit -> float) ->
  durable:bool ->
  vm_kind:Whips.System.vm_kind ->
  al_link:
    (view:string ->
    deliver:(Query.Action_list.t -> unit) ->
    Query.Action_list.t -> unit) ->
  ?on_merge_event:(held:int -> live:int -> unit) ->
  ?on_commit:(Warehouse.Wt.t -> unit) ->
  unit ->
  t
(** [initial] is the full source state [ss_0] (managers cache the base
    relations they need from it). [vm_kind] must be a complete
    plan-driven kind ([Complete_vm] or [Selfmaint_vm]; the shard merge
    runs SPA): managers are built from its {!Whips.System.plan_shape},
    exactly as the whips pipeline builds them. Both kinds emit identical
    action lists, so the downstream shard pipeline is the same; a
    self-maintaining shard stores keyed projections instead of full
    replicas.
    [al_link ~view ~deliver] must return a
    send function for the view manager's action-list channel whose far
    end invokes [deliver] — the system assembly supplies it so every
    manager->merge hop is a named, fault-injectable simulator link.
    [on_merge_event] fires after each merge-server event with the
    merge's held-list and live-VUT-row gauges; [on_commit] fires after a
    commit is applied and its version published. *)

val id : t -> int

val view_names : t -> string list

val store : t -> Warehouse.Store.t

val versions : t -> Serve.Version_manager.t

val receive : t -> Relational.Update.Transaction.t * string list -> unit
(** Deliver one routed update: the shard-local REL subset enters the
    merge server, then the transaction is handed to each relevant view
    manager. The REL is enqueued before any manager can emit, so the
    merge always learns a row's paint set before its action lists. *)

val flush : t -> unit
(** Flush managers and merge, then submit any emitted WTs. *)

val quiescent : t -> bool
(** Nothing queued at the merge server, no manager work pending, no
    emitted-but-unsubmitted WTs, no outstanding commits, merge VUT
    empty. *)

val merge_events : t -> int
(** Messages (RELs + action lists) the merge server has processed — the
    per-shard load the distributed benchmark tracks. *)

val wts_emitted : t -> int

val wal_appends : t -> int
(** WT records appended to the shard WAL (0 when [durable] is off). *)
