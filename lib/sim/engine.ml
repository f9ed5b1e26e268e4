module Key = struct
  type t = float * int

  let compare (ta, sa) (tb, sb) =
    match Float.compare ta tb with 0 -> Int.compare sa sb | c -> c
end

module Queue_map = Map.Make (Key)

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable queue : (unit -> unit) Queue_map.t;
  mutable processed : int;
}

let create () =
  { clock = 0.0; seq = 0; queue = Queue_map.empty; processed = 0 }

let now t = t.clock

let schedule_at t time thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %g is before now (%g)" time t.clock);
  t.queue <- Queue_map.add (time, t.seq) thunk t.queue;
  t.seq <- t.seq + 1

let schedule_after t delay thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t (t.clock +. delay) thunk

let pending t = Queue_map.cardinal t.queue

let dispatch t key time thunk =
  t.queue <- Queue_map.remove key t.queue;
  t.clock <- time;
  t.processed <- t.processed + 1;
  thunk ()

let step t =
  match Queue_map.min_binding_opt t.queue with
  | None -> false
  | Some (((time, _) as key), thunk) ->
    dispatch t key time thunk;
    true

(* One queue-minimum lookup per dispatched event: the binding that passes
   the [until] test is the one dispatched. *)
let run ?until t =
  let rec loop () =
    match Queue_map.min_binding_opt t.queue with
    | Some (((time, _) as key), thunk)
      when match until with None -> true | Some limit -> time <= limit ->
      dispatch t key time thunk;
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | Some _ | None -> ()

let processed t = t.processed
