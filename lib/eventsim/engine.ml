module Q = Scmp_util.Radix_heap

(* Events live in a struct-of-arrays slab addressed by int tickets, and
   the queue is a {!Scmp_util.Radix_heap} of tickets keyed by event
   time — the same monotone bucket queue the Dijkstra frontier runs
   on. Scheduling an event allocates nothing per event: it takes a
   ticket off the slab's free list, fills the slot and adds the
   ticket.

   A slot holds one of three event kinds:
   - a closure: any [unit -> unit], the general fallback;
   - a tick ({!every}): a periodic task whose ticket is re-added after
     each firing, so N firings keep one live slot;
   - a fast event: five immediate ints and a {!dispatch} — a handler
     registered once per event family (e.g. Netsim's single-edge
     delivery), not once per event. What the ints mean is the family's
     private contract.

   A fired slot drops what it held (closure or dispatch) before its
   ticket goes back on the free list, so a fired event's environment
   never stays reachable through the slab. *)

type dispatch = { run : int -> int -> int -> int -> int -> unit }

(* A taken slot's tag: the kind in bits 0-1, the background flag in
   bit 2. A free slot's tag is instead the next free ticket (-1 ends
   the chain). *)
let kind_closure = 0
let kind_tick = 1
let kind_fast = 2
let bg_bit = 4

let noop () = ()
let noop_dispatch = { run = (fun _ _ _ _ _ -> ()) }

type t = {
  mutable clock : float;
  queue : Q.t;
  mutable tags : int array;
  mutable times : Float.Array.t;
  mutable fns : (unit -> unit) array;  (* closure or tick body *)
  mutable ds : dispatch array;
  mutable args : int array;  (* five per slot *)
  mutable free : int;  (* head of the free-ticket chain; -1 when full *)
  mutable foreground : int;
  mutable executed : int;
  mutable heap_hwm : int;
}

let create () =
  {
    clock = 0.0;
    queue = Q.create ();
    tags = [||];
    times = Float.Array.create 0;
    fns = [||];
    ds = [||];
    args = [||];
    free = -1;
    foreground = 0;
    executed = 0;
    heap_hwm = 0;
  }

let now t = t.clock

(* Double the slab; only called with every slot taken, so the new
   slots alone form the free chain. *)
let grow t =
  let cap = Array.length t.tags in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.tags <-
    Array.init ncap (fun i ->
        if i < cap then t.tags.(i) else if i + 1 < ncap then i + 1 else -1);
  t.fns <- extend t.fns noop;
  t.ds <- extend t.ds noop_dispatch;
  let args = Array.make (5 * ncap) 0 in
  Array.blit t.args 0 args 0 (5 * cap);
  t.args <- args;
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.free <- cap

(* Queue accounting for a ticket just added at [time]. *)
let enqueued t tk ~time ~background =
  Float.Array.unsafe_set t.times tk time;
  let len = Q.length t.queue in
  if len > t.heap_hwm then t.heap_hwm <- len;
  if not background then t.foreground <- t.foreground + 1

(* Take a free ticket and queue it at [time]; the caller fills the
   payload. The add goes first, so a key the queue rejects (NaN)
   leaves the slab untouched. *)
let take t ~time ~background kind =
  if t.free < 0 then grow t;
  let tk = t.free in
  Q.add t.queue ~key:time tk;
  t.free <- Array.unsafe_get t.tags tk;
  Array.unsafe_set t.tags tk (if background then kind lor bg_bit else kind);
  enqueued t tk ~time ~background;
  tk

let release t tk =
  Array.unsafe_set t.tags tk t.free;
  t.free <- tk

(* [caller] names the public entry point so a "time in the past" error
   points at the call site that actually failed, not at schedule_at. *)
let enqueue t ~caller ~time ~background thunk =
  if time < t.clock then invalid_arg (caller ^ ": time in the past");
  let tk = take t ~time ~background kind_closure in
  Array.unsafe_set t.fns tk thunk

let schedule_at t ?(background = false) ~time thunk =
  enqueue t ~caller:"Engine.schedule_at" ~time ~background thunk

let schedule t ?(background = false) ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  enqueue t ~caller:"Engine.schedule" ~time:(t.clock +. delay) ~background thunk

let dispatch run = { run }

let schedule_fast t ?(background = false) ~time d a b c x y =
  if time < t.clock then invalid_arg "Engine.schedule_fast: time in the past";
  let tk = take t ~time ~background kind_fast in
  Array.unsafe_set t.ds tk d;
  let args = t.args and i = 5 * tk in
  Array.unsafe_set args i a;
  Array.unsafe_set args (i + 1) b;
  Array.unsafe_set args (i + 2) c;
  Array.unsafe_set args (i + 3) x;
  Array.unsafe_set args (i + 4) y

let every t ~interval ?until ?(background = false) thunk =
  if interval <= 0.0 then invalid_arg "Engine.every: non-positive interval";
  let tuntil = match until with Some stop -> stop | None -> infinity in
  (* One ticket for the task's whole lifetime. The [until] window also
     gates the *first* firing: a periodic task whose first tick would
     land past the horizon never fires at all. The ticket is re-added
     *after* the body ran, preserving the old recursive-closure FIFO
     order: events the body scheduled for the same next instant were
     inserted first and pop first. *)
  let first = t.clock +. interval in
  if first <= tuntil then begin
    let tk = take t ~time:first ~background kind_tick in
    Array.unsafe_set t.fns tk (fun () ->
        thunk ();
        let next = t.clock +. interval in
        if next <= tuntil then begin
          Q.add t.queue ~key:next tk;
          enqueued t tk ~time:next ~background
        end
        else begin
          Array.unsafe_set t.fns tk noop;
          release t tk
        end)
  end

let pending t = Q.length t.queue
let pending_foreground t = t.foreground
let events_executed t = t.executed
let heap_high_water t = t.heap_hwm

let observe t m =
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "engine/events_executed")
    t.executed;
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "engine/heap_high_water")
    t.heap_hwm

(* Execute a popped ticket: set the clock, do the accounting, then run
   the event. A closure or fast slot is emptied and freed before its
   body runs (the body may take the same ticket again); a tick keeps
   its slot and re-adds or frees it itself. *)
let run_one t tk =
  let time = Float.Array.unsafe_get t.times tk in
  if time <> t.clock then t.clock <- time;
  let tag = Array.unsafe_get t.tags tk in
  if tag land bg_bit = 0 then t.foreground <- t.foreground - 1;
  t.executed <- t.executed + 1;
  let kind = tag land 3 in
  if kind = kind_fast then begin
    let d = Array.unsafe_get t.ds tk in
    let args = t.args and i = 5 * tk in
    let a = Array.unsafe_get args i
    and b = Array.unsafe_get args (i + 1)
    and c = Array.unsafe_get args (i + 2)
    and x = Array.unsafe_get args (i + 3)
    and y = Array.unsafe_get args (i + 4) in
    Array.unsafe_set t.ds tk noop_dispatch;
    release t tk;
    d.run a b c x y
  end
  else if kind = kind_closure then begin
    let fn = Array.unsafe_get t.fns tk in
    Array.unsafe_set t.fns tk noop;
    release t tk;
    fn ()
  end
  else (Array.unsafe_get t.fns tk) ()

let step t =
  if Q.is_empty t.queue then false
  else begin
    run_one t (Q.pop_val t.queue);
    true
  end

(* Without [until]: run to quiescence — until no foreground event
   remains (background-only residue, like periodic IGMP queries, does
   not keep the simulation alive). With [until]: run every event, of
   either kind, scheduled within the window, peeking at the minimum
   before each pop. Either way the popped ticket's slot supplies the
   event time. *)
let run ?until t =
  (match until with
  | None ->
    (* foreground > 0 implies the queue is non-empty *)
    while t.foreground > 0 do
      run_one t (Q.pop_val t.queue)
    done
  | Some stop ->
    (* an empty queue reports max_int, above every real key *)
    let istop = Q.image stop in
    while Q.min_image t.queue <= istop do
      run_one t (Q.pop_val t.queue)
    done);
  match until with
  | Some stop when stop > t.clock -> t.clock <- stop
  | _ -> ()
