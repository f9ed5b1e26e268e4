(** Seeded multi-tenant workload generation for the distributed
    (sharded) warehouse.

    Each tenant [t] owns two base relations — [orders_t] (attributes
    [(a, b)]) and [items_t] (attributes [(b, c)]) — and two per-tenant
    materialized views: a join leg [sales_t = orders_t ⋈ items_t] and a
    selection leg [hot_t = σ(orders_t)]. All tenants share the same
    attribute names, so same-kind legs are union-compatible across
    tenants: the generator also describes two cross-tenant {e union
    views} ([sales_all], [hot_all]) stitched from every tenant's legs.
    Transactions are single-tenant (the property the shard router
    exploits); which tenant a transaction hits is drawn from a Zipf
    distribution with exponent [skew] (0 = uniform), so a skewed
    deployment hammers tenant 0 hardest. Everything is a pure function
    of [config.seed]. *)

type config = {
  seed : int;
  tenants : int;
  initial_tuples : int;  (** Per relation. *)
  n_transactions : int;
  skew : float;
      (** Zipf exponent for the tenant-popularity distribution;
          [0.0] is uniform, [1.0] classic Zipf. *)
  value_range : int;  (** Attribute values drawn from [0, value_range). *)
}

val default : config

type t = {
  scenario : Scenarios.t;
      (** Sources, per-tenant leg views, and the transaction script.
          Only the legs appear in [scenario.views]; the unions below are
          stitched at read time and never materialized globally. *)
  tenant_of_view : (string * int) list;
      (** Owning tenant of each leg view in [scenario.views]. *)
  unions : (string * string list) list;
      (** Cross-tenant union views as (name, leg view names). *)
  tenant_index : (string, int) Hashtbl.t;
      (** [tenant_of_view] as a hash table, built once by {!generate}
          so that {!tenant_of} (called on every routed update) is O(1).
          Read-only. *)
}

val generate : config -> t
(** @raise Invalid_argument on nonsensical configs (no tenants, empty
    value range, negative skew...). *)

val tenant_of : t -> string -> int
(** Owning tenant of a leg view name, in O(1).
    @raise Not_found for names outside the workload. *)

val zipf : Sim.Rng.t -> skew:float -> int -> int
(** [zipf rng ~skew n] samples a rank in [0, n): rank [i] with
    probability proportional to [1 / (i+1)^skew]. Exposed for tests. *)
