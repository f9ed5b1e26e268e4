(* Channels between processes, optionally wrapped in the ARQ layer. Both
   flavours expose the same [send]; reliable links additionally track
   quiescence (unacked / buffered frames) for the drain check, and the
   crash helpers below do nothing on [Off] links. *)
type 'a t = { send : 'a -> unit; reliable : 'a Sim.Reliable.t option }

(* The receiving half of a link, which a crash of its receiver touches,
   with the payload type erased so a process can keep every link it
   listens on in one list. *)
type port = { rx_down : bool -> unit; rx_reset : unit -> unit }

let no_port = { rx_down = ignore; rx_reset = ignore }

let receiver_down l d =
  Option.iter (fun rl -> Sim.Reliable.set_receiver_down rl d) l.reliable

let reset_receiver l = Option.iter Sim.Reliable.reset_receiver l.reliable

(* A restarting sender's fresh epoch; [Off] links have no epochs, so the
   caller's own counter advances instead. *)
let bump_epoch l ~otherwise =
  match l.reliable with
  | Some rl -> Sim.Reliable.bump_epoch rl
  | None -> otherwise

let port l =
  { rx_down = receiver_down l; rx_reset = (fun () -> reset_receiver l) }

(* Every link of a run is built here, so the quiescence, stats and drop
   registries cover all of them. Each [Acked] link splits [link_rng] and
   the fault plan attaches by channel name, so callers must create links
   in a fixed order under fixed names. *)
type factory = {
  engine : Sim.Engine.t;
  acked : Sim.Reliable.params option;
  plan : Workload.Fault_plan.t;
  fault_rng : Sim.Rng.t;
  link_rng : Sim.Rng.t;
  latency : unit -> float;
  on_give_up : string -> unit;
  mutable quiescence : (unit -> bool) list;
  mutable stats : (unit -> Sim.Reliable.stats) list;
  mutable drops : (unit -> int) list;
}

let factory engine ~(reliability : Config.reliability) ~plan ~fault_rng
    ~link_rng ~latency ~on_give_up =
  let acked =
    match reliability with Config.Off -> None | Config.Acked p -> Some p
  in
  { engine; acked; plan; fault_rng; link_rng; latency; on_give_up;
    quiescence = []; stats = []; drops = [] }

let register f ~faultable chan =
  if faultable && not (Workload.Fault_plan.is_empty f.plan) then
    Workload.Fault_plan.attach f.plan ~rng:f.fault_rng chan;
  f.drops <- (fun () -> Sim.Channel.dropped chan) :: f.drops

(* [faultable:false] keeps a link outside the fault plan's reach. The
   source->integrator feed is the ground-truth boundary: the paper
   assumes sources report every committed transaction, and the
   consistency oracle's recorded schedule depends on it, so injected
   faults model only the warehouse's internal messaging. *)
let make f ?(faultable = true) ~name deliver =
  match f.acked with
  | None ->
    let ch = Sim.Channel.create f.engine ~name ~latency:f.latency deliver in
    register f ~faultable ch;
    { send = (fun m -> Sim.Channel.send ch m); reliable = None }
  | Some params ->
    let rl =
      Sim.Reliable.create f.engine ~name ~params ~rng:(Sim.Rng.split f.link_rng)
        ~on_give_up:(fun () -> f.on_give_up name)
        ~latency:f.latency deliver
    in
    register f ~faultable (Sim.Reliable.data_channel rl);
    register f ~faultable (Sim.Reliable.ctrl_channel rl);
    f.quiescence <- (fun () -> Sim.Reliable.quiescent rl) :: f.quiescence;
    f.stats <- (fun () -> Sim.Reliable.stats rl) :: f.stats;
    { send = (fun m -> Sim.Reliable.send rl m); reliable = Some rl }

let quiescent f = List.for_all (fun q -> q ()) f.quiescence

(* Fold every link's drop and ARQ counters into the metrics at drain
   time. Give-ups are counted at event time by [on_give_up], not here. *)
let fold_stats f (metrics : Metrics.t) =
  Metrics.add metrics.Metrics.msgs_dropped
    (List.fold_left (fun acc d -> acc + d ()) 0 f.drops);
  List.iter
    (fun get ->
      let s = get () in
      Metrics.add metrics.Metrics.retransmits s.Sim.Reliable.retransmits;
      Metrics.add metrics.Metrics.acks s.Sim.Reliable.acks_sent;
      Metrics.add metrics.Metrics.nacks s.Sim.Reliable.nacks_sent;
      Metrics.add metrics.Metrics.dup_frames_dropped
        s.Sim.Reliable.dups_dropped)
    f.stats
