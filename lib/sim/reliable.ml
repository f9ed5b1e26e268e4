type params = {
  ack_timeout : float;
  backoff : float;
  max_timeout : float;
  jitter : float;
  max_retries : int;
}

let default_params =
  { ack_timeout = 0.05; backoff = 2.0; max_timeout = 0.8; jitter = 0.1;
    max_retries = 25 }

type stats = {
  mutable msgs_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable nacks_sent : int;
  mutable dups_dropped : int;
  mutable gave_up : int;
}

type 'a frame = { f_epoch : int; f_seq : int; payload : 'a }

type ctrl = Ack of { a_epoch : int; upto : int } | Nack of { n_epoch : int; from_ : int }

type 'a t = {
  engine : Engine.t;
  params : params;
  rng : Rng.t;
  stats : stats;
  on_give_up : unit -> unit;
  deliver : 'a -> unit;
  mutable data : 'a frame Channel.t option;
  mutable ctrl : ctrl Channel.t option;
  (* sender state *)
  mutable s_epoch : int;
  mutable next_seq : int;
  mutable unacked : 'a frame list; (* ascending seq *)
  mutable timer_gen : int;
  mutable retries : int;
  mutable sender_gave_up : bool;
  (* receiver state *)
  mutable r_epoch : int;
  mutable expected : int;
  mutable buffer : 'a frame list; (* ascending seq *)
  mutable last_nack : int; (* seq already nacked for; suppress repeats *)
  mutable r_down : bool;
}

let stats t = t.stats

let timeout_for t =
  let base =
    Float.min t.params.max_timeout
      (t.params.ack_timeout *. (t.params.backoff ** float_of_int t.retries))
  in
  base *. (1.0 +. Rng.float t.rng t.params.jitter)

let send_ctrl t c =
  match t.ctrl with None -> () | Some ch -> Channel.send ch c

let rec arm_timer t =
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  Engine.schedule_after t.engine (timeout_for t) (fun () ->
      if gen = t.timer_gen && t.unacked <> [] then begin
        t.retries <- t.retries + 1;
        if t.retries > t.params.max_retries then begin
          (* Give up: stop retransmitting. The link is no longer quiescent,
             so the system reports stuck rather than a wrong answer. *)
          t.sender_gave_up <- true;
          t.stats.gave_up <- t.stats.gave_up + 1;
          t.on_give_up ()
        end
        else begin
          List.iter
            (fun f ->
              t.stats.retransmits <- t.stats.retransmits + 1;
              match t.data with
              | None -> ()
              | Some ch -> Channel.send ch f)
            t.unacked;
          arm_timer t
        end
      end)

let disarm_timer t = t.timer_gen <- t.timer_gen + 1

let send t payload =
  let f = { f_epoch = t.s_epoch; f_seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  t.unacked <- t.unacked @ [ f ];
  t.stats.msgs_sent <- t.stats.msgs_sent + 1;
  (match t.data with None -> () | Some ch -> Channel.send ch f);
  if not t.sender_gave_up then arm_timer t

let retransmit_from t from_ =
  let to_send = List.filter (fun f -> f.f_seq >= from_) t.unacked in
  if to_send <> [] then begin
    List.iter
      (fun f ->
        t.stats.retransmits <- t.stats.retransmits + 1;
        match t.data with None -> () | Some ch -> Channel.send ch f)
      to_send;
    if not t.sender_gave_up then arm_timer t
  end

let on_ctrl t c =
  match c with
  | Ack { a_epoch; upto } ->
    if a_epoch = t.s_epoch then begin
      let before = List.length t.unacked in
      t.unacked <- List.filter (fun f -> f.f_seq > upto) t.unacked;
      if List.length t.unacked < before then begin
        t.retries <- 0;
        if t.unacked = [] then disarm_timer t
        else if not t.sender_gave_up then arm_timer t
      end
    end
  | Nack { n_epoch; from_ } ->
    if n_epoch = t.s_epoch && not t.sender_gave_up then retransmit_from t from_

(* Receiver: deliver in-order frames, buffer out-of-order, dedup the rest. *)
let rec drain_buffer t =
  match t.buffer with
  | f :: rest when f.f_seq = t.expected ->
    t.buffer <- rest;
    t.expected <- t.expected + 1;
    t.deliver f.payload;
    drain_buffer t
  | _ -> ()

let on_data t f =
  if t.r_down then ()
  else begin
    if f.f_epoch > t.r_epoch then begin
      (* Peer restarted with a new epoch: old expectations are void. *)
      t.r_epoch <- f.f_epoch;
      t.expected <- 1;
      t.buffer <- [];
      t.last_nack <- 0
    end;
    if f.f_epoch < t.r_epoch then ()
    else if f.f_seq < t.expected then begin
      (* Duplicate of something already delivered: re-ack so the sender can
         release it (the original ack may have been lost). *)
      t.stats.dups_dropped <- t.stats.dups_dropped + 1;
      t.stats.acks_sent <- t.stats.acks_sent + 1;
      send_ctrl t (Ack { a_epoch = t.r_epoch; upto = t.expected - 1 })
    end
    else if f.f_seq = t.expected then begin
      t.expected <- t.expected + 1;
      t.deliver f.payload;
      drain_buffer t;
      t.last_nack <- 0;
      t.stats.acks_sent <- t.stats.acks_sent + 1;
      send_ctrl t (Ack { a_epoch = t.r_epoch; upto = t.expected - 1 })
    end
    else begin
      (* Gap: buffer, and nack the missing prefix once per gap. *)
      if not (List.exists (fun g -> g.f_seq = f.f_seq) t.buffer) then
        t.buffer <-
          List.sort (fun a b -> compare a.f_seq b.f_seq) (f :: t.buffer)
      else t.stats.dups_dropped <- t.stats.dups_dropped + 1;
      if t.last_nack < t.expected then begin
        t.last_nack <- t.expected;
        t.stats.nacks_sent <- t.stats.nacks_sent + 1;
        send_ctrl t (Nack { n_epoch = t.r_epoch; from_ = t.expected })
      end
    end
  end

let create engine ?(name = "rel") ?(params = default_params)
    ?(on_give_up = fun () -> ()) ~rng ~latency deliver =
  let t =
    { engine; params; rng;
      stats =
        { msgs_sent = 0; retransmits = 0; acks_sent = 0; nacks_sent = 0;
          dups_dropped = 0; gave_up = 0 };
      on_give_up; deliver; data = None; ctrl = None; s_epoch = 0; next_seq = 1;
      unacked = []; timer_gen = 0; retries = 0; sender_gave_up = false;
      r_epoch = 0; expected = 1; buffer = []; last_nack = 0; r_down = false }
  in
  let data = Channel.create engine ~name ~latency (fun f -> on_data t f) in
  let ctrl =
    Channel.create engine ~name:(name ^ "/ack") ~latency (fun c -> on_ctrl t c)
  in
  t.data <- Some data;
  t.ctrl <- Some ctrl;
  t

let data_channel t = Option.get t.data

let ctrl_channel t = Option.get t.ctrl

let bump_epoch t =
  t.s_epoch <- t.s_epoch + 1;
  t.next_seq <- 1;
  t.unacked <- [];
  t.retries <- 0;
  t.sender_gave_up <- false;
  disarm_timer t;
  t.s_epoch

let sender_epoch t = t.s_epoch

let set_receiver_down t down =
  t.r_down <- down;
  if down then begin
    t.buffer <- [];
    t.last_nack <- 0
  end

let rebase_receiver t =
  (* The restarted receiver and its sender agree on a fresh epoch: the
     old stream's unacked frames are void, and the new one is taken from
     sequence 1 in order, so no frame can overtake a dropped one. *)
  t.r_epoch <- bump_epoch t;
  t.expected <- 1;
  t.buffer <- [];
  t.last_nack <- 0;
  t.r_down <- false

let quiescent t = t.unacked = [] && t.buffer = [] && not t.sender_gave_up

let gave_up t = t.sender_gave_up
