(* Discrete-event engine: one binary heap of events ordered by (at, seq).
   [seq] comes from one counter in schedule order, so same-instant events
   fire FIFO and a run is a pure function of its schedule calls.  A handle
   is the event's heap slot, so cancelling is an O(log n) heap removal. *)

type time = float

type event = { at : time; seq : int; action : unit -> unit }

type handle = Ccdb_util.Heap.handle

type t = {
  queue : event Ccdb_util.Heap.t;
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
}

let compare_event a b =
  let c = compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

let create () =
  { queue = Ccdb_util.Heap.create ~cmp:compare_event;
    clock = 0.;
    seq = 0;
    fired = 0 }

let now t = t.clock

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let ev = { at; seq = t.seq; action } in
  t.seq <- t.seq + 1;
  Ccdb_util.Heap.push t.queue ev

let schedule ?site:_ t ~after action =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock +. after) action

let cancel t h = Ccdb_util.Heap.remove t.queue h

let step t =
  match Ccdb_util.Heap.pop t.queue with
  | None -> false
  | Some ev ->
    t.clock <- ev.at;
    t.fired <- t.fired + 1;
    ev.action ();
    true

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Ccdb_util.Heap.peek t.queue with
    | None -> continue := false
    | Some ev ->
      (match until with
       | Some horizon when ev.at > horizon ->
         t.clock <- max t.clock horizon;
         continue := false
       | _ ->
         ignore (step t);
         decr budget)
  done

let pending t = Ccdb_util.Heap.length t.queue
let processed t = t.fired
