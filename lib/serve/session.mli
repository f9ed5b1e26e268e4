(** Reader sessions: each read evaluated against exactly one warehouse
    version, under a selectable guarantee.

    A session is one client connection to the warehouse. Every read —
    current or historical ([as_of]) — selects a single version from the
    {!Version_manager}, takes a lease on it, evaluates the query against
    that one immutable state vector, and releases the lease. Because
    SPA/PA make every *version* a mutually consistent snapshot, whatever
    consistency the maintenance pipeline promised is exactly what the
    client observes; the guarantee only governs *which* version a read
    may see:

    - [Latest]: always the newest published version.
    - [Monotonic_reads]: the session carries a token — the highest
      version index it has observed — and never serves a version below
      it. Current reads serve the latest version; historical reads whose
      [as_of] instant falls below the token are clamped up to it (the
      session never travels backwards within itself).
    - [Bounded_staleness s]: any version no older than [s] simulated
      seconds is admissible; reads serve the *oldest* admissible version,
      which maximizes result-cache reuse across the session population
      while keeping served staleness under the bound. Historical reads
      older than the bound are likewise clamped up to it.

    Reads that ask for pruned history (below the version manager's
    watermark) are clamped up to the oldest retained version rather than
    failing — the serving answer to "as old as you have".

    A read is split into {!start} (version selection + lease) and
    {!complete} (evaluation + lease release) so a caller modelling
    service latency can hold the lease across simulated time — the
    version manager's pruning pass then cannot yank the snapshot out
    from under the in-flight read. {!read} composes the two for
    immediate evaluation. *)

open Relational

type guarantee = Latest | Monotonic_reads | Bounded_staleness of float

val guarantee_name : guarantee -> string
(** ["latest"], ["monotonic"], ["bounded-0.050"] — the spelling used in
    benchmark tables and JSON. *)

type outcome = {
  result : Bag.t;
  version : int;  (** Version index served. *)
  version_time : float;
  staleness : float;
      (** Completion time minus served version time (clamped at 0). *)
  cache_hit : bool;
  clamped : bool;
      (** The guarantee (or pruning) forced a newer version than the
          read asked for. *)
}

type pending
(** An in-flight read holding a lease on its selected version. *)

type t

val create : ?cache:Result_cache.t -> guarantee:guarantee -> Version_manager.t -> t
(** Sessions sharing a {!Result_cache} share results — the cache is
    version-exact, so sharing is always sound. The cache is bound to
    [vm] ({!Result_cache.bind}), so its snapshots follow [vm]'s
    retention.
    @raise Invalid_argument if [cache] already serves another manager. *)

val guarantee : t -> guarantee

val token : t -> int
(** Highest version index this session has observed (0 initially). *)

val start : t -> now:float -> ?as_of:float -> unit -> pending
(** Select a version per the guarantee ([as_of] asks for the version
    visible at that instant; omitting it asks for a current read) and
    pin it. *)

val pending_version : pending -> Version_manager.version

val complete : t -> pending -> now:float -> Query.Algebra.t -> outcome
(** Evaluate against the pinned version — through the shared cache when
    one was given, compiling via {!Query.Compiled.compile_memo} on a
    miss — then release the lease and advance the session token.
    Completing the same pending read twice raises [Invalid_argument]. *)

val read : t -> now:float -> ?as_of:float -> Query.Algebra.t -> outcome
(** [start] and [complete] back to back (no service latency). *)
