(* What the process components of a run share: the messages manager and
   merge exchange, the run context, the crash trigger and the arrival
   process. *)

(* Control traffic merge -> manager. [Resync_reply] answers a restarting
   manager's handshake with the merge's watermark for its view;
   [Resync_demand] is the inverse direction of initiative — a restarted
   merge asking every live manager to re-handshake and replay the action
   lists the fresh incarnation has not seen. *)
type ctrl_msg = Resync_reply of int * int | Resync_demand

(* Traffic manager -> merge: action lists, RELs forwarded under
   [Via_manager] routing (row, REL group, previous row routed to the same
   merge), and the resync marker opening a manager's fresh epoch. *)
type vm_msg =
  [ `Al of Query.Action_list.t
  | `Rel of int * string list * int
  | `Resync of int ]

(* The run context: the engine, the domain pool, the metrics, the
   latency sampler and the timeline. *)
type recovery = { mutable wal_replayed : int; mutable recovery_time : float }

type ctx = {
  engine : Sim.Engine.t;
  exec : Parallel.Exec.t;
  metrics : Metrics.t;
  sample : float -> float;
  record : 'a. ('a, Format.formatter, unit) format -> 'a;
      (* With the timeline off, a record consumes its arguments without
         formatting them: no message is built for nobody. *)
  recovery : recovery;
      (* WAL records replayed and downtime summed over every process
         restart, in restart order. *)
}

let context ?(timeline = ref []) ~record_timeline engine ~exec ~metrics
    ~sample =
  let record fmt =
    if record_timeline then
      Fmt.kstr
        (fun msg -> timeline := (Sim.Engine.now engine, msg) :: !timeline)
        fmt
    else Format.ikfprintf ignore Format.err_formatter fmt
  in
  { engine; exec; metrics; sample; record;
    recovery = { wal_replayed = 0; recovery_time = 0.0 } }

let now ctx = Sim.Engine.now ctx.engine

(* A process finished recovering from the crash at [crashed_at]. *)
let recovered ctx ~crashed_at =
  Atomic.incr ctx.metrics.Metrics.recoveries;
  ctx.recovery.recovery_time <-
    ctx.recovery.recovery_time +. (now ctx -. crashed_at)

let names = Fmt.(list ~sep:(any ", ") string)

let row_ids = Fmt.(list ~sep:(any ", ") int)

(* A crash spec (at_event, restart_after) fires once, on the nth event
   its process handles; the crash body is tied in once the process it
   wipes exists. The message carrying the triggering event is the
   casualty. Without the reliability layer there is no resync protocol:
   the process never restarts and stays dead (stuck-but-safe). *)
type trigger = {
  at : int option;
  restart_after : float option;
  mutable events : int;
  mutable fire : unit -> unit;
}

let trigger (reliability : Config.reliability) spec =
  { at = Option.map fst spec;
    restart_after =
      (match reliability with
      | Config.Off -> None
      | Config.Acked _ -> Option.map snd spec);
    events = 0; fire = ignore }

let note t =
  t.events <- t.events + 1;
  if t.at = Some t.events then t.fire ()

let restart ctx t k =
  Option.iter
    (fun after -> Sim.Engine.schedule_after ctx.engine after k)
    t.restart_after

(* The next instant of an arrival process whose last arrival was at
   [!clock] (advanced in place). *)
let next_arrival rng (arrival : Config.arrival) clock =
  match arrival with
  | Config.All_at_once -> 0.0
  | Config.Uniform gap ->
    clock := !clock +. gap;
    !clock
  | Config.Poisson rate ->
    clock := !clock +. Sim.Rng.exponential rng ~mean:(1.0 /. rate);
    !clock
