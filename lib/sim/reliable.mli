(** Reliable delivery over lossy {!Channel}s: an ARQ wrapper.

    A [Reliable.t] pairs one data channel with a reverse control channel
    and implements sequence numbers, receiver-side dedup and reordering,
    cumulative acks, NACK-on-gap for fast selective retransmit, and a
    timeout/exponential-backoff retransmission loop (capped and jittered
    from the run's {!Rng}). Payloads are delivered to the application
    exactly once and in send order even when the underlying channels drop,
    duplicate, or delay messages.

    Epochs support crash-restart: a restarting *sender* calls
    {!bump_epoch}, which voids the old stream at the receiver; a restarting
    *receiver* calls {!rebase_receiver}, which has its sender open a fresh
    epoch that the receiver takes from sequence 1, and recovers anything
    sent before out of band. *)

type params = {
  ack_timeout : float;  (** initial retransmit timeout (seconds) *)
  backoff : float;  (** timeout multiplier per retry *)
  max_timeout : float;  (** backoff cap *)
  jitter : float;  (** fractional uniform jitter added to each timeout *)
  max_retries : int;  (** give up (stop retransmitting) after this many *)
}

val default_params : params

type stats = {
  mutable msgs_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable nacks_sent : int;
  mutable dups_dropped : int;
  mutable gave_up : int;
}

type 'a frame = { f_epoch : int; f_seq : int; payload : 'a }
(** Wire format on the data channel. Exposed so tests and fault plans can
    target the underlying channels directly. *)

type ctrl =
  | Ack of { a_epoch : int; upto : int }
  | Nack of { n_epoch : int; from_ : int }
      (** Wire format on the control channel. Acks are cumulative; a Nack
          requests retransmission of every unacked frame from [from_]. *)

type 'a t

val create :
  Engine.t ->
  ?name:string ->
  ?params:params ->
  ?on_give_up:(unit -> unit) ->
  rng:Rng.t ->
  latency:(unit -> float) ->
  ('a -> unit) ->
  'a t
(** [create engine ~rng ~latency deliver] builds the link. The data channel
    is named [name]; the control (ack/nack) channel [name ^ "/ack"]. Both
    sample [latency] per message and accept fault hooks. [on_give_up] fires
    at the moment the sender exhausts [max_retries] and stops
    retransmitting — link death is an event the embedding system can
    surface immediately, not just an end-of-run statistic. *)

val send : 'a t -> 'a -> unit

val data_channel : 'a t -> 'a frame Channel.t
(** The underlying data channel (attach fault hooks, read stats). *)

val ctrl_channel : 'a t -> ctrl Channel.t
(** The underlying control channel. *)

val bump_epoch : 'a t -> int
(** Restarting sender: discard unacked state, start a fresh epoch and
    sequence. Returns the new epoch. *)

val sender_epoch : 'a t -> int

val set_receiver_down : 'a t -> bool -> unit
(** While down, incoming frames are ignored entirely (no acks). *)

val rebase_receiver : 'a t -> unit
(** Restarting receiver whose sender restarts the stream for it: the
    sender opens a fresh epoch (as {!bump_epoch}, voiding its unacked
    frames) and the receiver expects that epoch from sequence 1. A frame
    that overtakes a dropped one is buffered like any gap, so everything
    sent after the rebase is delivered in order; what was sent before
    must be recovered out of band. *)

val quiescent : 'a t -> bool
(** No unacked frames, no buffered out-of-order frames, sender has not
    given up. A drained system requires every link quiescent. *)

val gave_up : 'a t -> bool

val stats : 'a t -> stats
