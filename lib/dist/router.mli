(** View-to-shard placement for the distributed warehouse.

    Views are pinned to warehouse shards by owning tenant ([tenant mod
    shards]), so a tenant's whole view family lives on one shard and a
    single-tenant source transaction touches exactly one shard — the
    property that keeps per-shard merge load flat as tenants multiply. *)

type t

val create : shards:int -> tenant_of:(string -> int) -> t
(** [tenant_of] maps a view name to its owning tenant.
    @raise Invalid_argument if [shards < 1]. *)

val shard_of_view : t -> string -> int
(** The shard a view is assigned to. *)
