(** Streaming statistics for benchmark metrics (freshness, queue depths,
    throughput). *)

module Summary : sig
  (** Scalar sample summary: count, mean (Welford), min/max, stddev, and
      exact percentiles. Samples are retained unboxed in a growable
      float array, 8 bytes each; the first {!percentile} after an {!add}
      sorts a copy. *)

  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float

  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100], nearest-rank; [nan] when
      empty. *)

  val pp : Format.formatter -> t -> unit
end

module Counter : sig
  type t

  val create : unit -> t

  val incr : ?by:int -> t -> unit

  val value : t -> int
end

module Time_weighted : sig
  (** Time-weighted average of a piecewise-constant signal, e.g. queue
      depth over simulated time. *)

  type t

  val create : now:float -> initial:float -> t

  val observe : t -> now:float -> float -> unit
  (** Record that the signal changed to the given value at time [now]. *)

  val average : t -> now:float -> float
  (** Time-weighted mean over [start, now]. *)

  val current : t -> float

  val maximum : t -> float
end
