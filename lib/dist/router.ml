type t = { n_shards : int; tenant_of : string -> int }

let create ~shards ~tenant_of =
  if shards < 1 then invalid_arg "Router.create: shards < 1";
  { n_shards = shards; tenant_of }

let shard_of_view t view = t.tenant_of view mod t.n_shards
