(* The event-kernel suite: the engine's execution order checked
   against a binary-heap oracle, bad and below-clock event times, the
   engine's error paths and until-window edges, transmit-hook
   registration order, the O(1)-slot periodic task, and fired events
   letting go of their closures. The ticket queue itself (Radix_heap)
   is checked against the same oracle in test_csr.ml. *)

module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Heap = Scmp_util.Heap
module G = Netgraph.Graph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------------- the event calendar vs heap oracle ---------------- *)

(* The "calendar-queue" suite checks the engine's pending-event set
   (its event calendar: slot tickets on a Radix_heap) through the
   Engine API. The queue alone is checked in test_csr.ml; here the
   slab, ticket recycling and the three event kinds ride along. *)

(* Random traces of closure, fast, child-scheduling and periodic
   events, interleaved with [step] and [run ~until], replayed against a
   binary-heap oracle. Every event logs a fresh id and the oracle
   receives the same (time, id) at the moment the engine does — a
   child inside its parent's body, a tick's next firing at the end of
   the tick body, just before the engine re-adds the tick's ticket. Times
   sit on multiples of 0.5 above the clock (exactly representable), so
   same-instant ties are frequent and the FIFO rule is exercised; delta
   0 schedules at the clock itself. The execution log must equal the
   oracle's pop order, with the clock and pending count matching after
   every operation. *)
let prop_calendar_matches_heap =
  QCheck.Test.make ~name:"calendar queue matches heap oracle" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (pair (int_bound 11) (int_bound 6)))
    (fun ops ->
      let e = Engine.create () and oracle = Heap.create () in
      let seq = ref 0 and log = ref [] and popped = ref [] and ok = ref true in
      let expect b = if not b then ok := false in
      let fresh time =
        incr seq;
        Heap.add oracle ~key:time !seq;
        !seq
      in
      let at delta = Engine.now e +. (0.5 *. float_of_int delta) in
      let oracle_pop () =
        match Heap.pop oracle with
        | Some (k, id) ->
          popped := id :: !popped;
          Some k
        | None -> None
      in
      let add_closure time body =
        let id = fresh time in
        Engine.schedule_at e ~time (fun () ->
            log := id :: !log;
            body ())
      in
      let fast = Engine.dispatch (fun id _ _ _ _ -> log := id :: !log) in
      let add_tick ~interval ~until =
        let first = Engine.now e +. interval in
        let id = ref (if first <= until then fresh first else 0) in
        Engine.every e ~interval ~until (fun () ->
            log := !id :: !log;
            let next = Engine.now e +. interval in
            if next <= until then begin
              (* a same-instant event from the body pops before the
                 tick's re-added ticket *)
              add_closure next ignore;
              id := fresh next
            end)
      in
      List.iter
        (fun (op, delta) ->
          if op < 4 then add_closure (at delta) ignore
          else if op < 6 then begin
            let time = at delta in
            Engine.schedule_fast e ~time fast (fresh time) 0 0 0 0
          end
          else if op = 6 then add_closure (at 1) (fun () -> add_closure (at delta) ignore)
          else if op = 7 then
            add_tick ~interval:(0.5 *. float_of_int (delta + 1)) ~until:(at 6)
          else if op < 10 then begin
            let ran = Engine.step e in
            match oracle_pop () with
            | Some k -> expect (ran && Engine.now e = k)
            | None -> expect (not ran)
          end
          else begin
            let stop = at delta in
            Engine.run ~until:stop e;
            while
              match Heap.min_key oracle with Some k -> k <= stop | None -> false
            do
              ignore (oracle_pop ())
            done;
            expect (Engine.now e = stop)
          end;
          expect (Engine.pending e = Heap.length oracle);
          expect (!log = !popped))
        ops;
      Engine.run e;
      while oracle_pop () <> None do
        ()
      done;
      !ok && !log = !popped && Engine.pending e = 0)

(* The queue is keyed by the int image of the event time, and
   [run ~until] compares images: an event runs inside the window
   exactly when its time is <= the horizon, and the clock then reads
   back the exact time the event was scheduled at. *)
let prop_image_order_isomorphic =
  QCheck.Test.make ~name:"image is order-preserving and invertible" ~count:300
    QCheck.(pair (float_bound_exclusive 1e9) (float_bound_exclusive 1e9))
    (fun (a, b) ->
      let a = Float.abs a and b = Float.abs b in
      let e = Engine.create () in
      let ran = ref false in
      Engine.schedule_at e ~time:a (fun () -> ran := true);
      Engine.run ~until:b e;
      let in_window = !ran in
      let window_ok = in_window = (a <= b) && Engine.now e = b in
      (* outside the window the event is still pending; [step] runs it
         and sets the clock to its time *)
      ignore (Engine.step e);
      window_ok && !ran && Engine.now e = if in_window then b else a)

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")

let test_calendar_rejects_bad_keys () =
  (* A NaN time passes the engine's past-time comparison and is
     rejected by the queue before any slot is taken; a negative time is
     in the past from the start. *)
  let e = Engine.create () in
  let d = Engine.dispatch (fun _ _ _ _ _ -> ()) in
  expect_invalid "nan schedule_at" (fun () ->
      Engine.schedule_at e ~time:Float.nan ignore);
  expect_invalid "nan delay" (fun () -> Engine.schedule e ~delay:Float.nan ignore);
  expect_invalid "nan schedule_fast" (fun () ->
      Engine.schedule_fast e ~time:Float.nan d 0 0 0 0 0);
  expect_invalid "negative time" (fun () -> Engine.schedule_at e ~time:(-1.0) ignore);
  checki "rejected adds left nothing" 0 (Engine.pending e);
  checki "no foreground event counted" 0 (Engine.pending_foreground e);
  let ran = ref false in
  Engine.schedule e ~delay:1.0 (fun () -> ran := true);
  Engine.run e;
  checkb "engine usable after rejections" true !ran;
  checki "one live event at most" 1 (Engine.heap_high_water e)

let test_calendar_below_floor_detected () =
  (* More than the queue's scan threshold of events at one instant
     makes the first pop redistribute their bucket and advance the
     queue's floor to that instant. An add below the clock must still
     be caught by the engine and name the failing call, and the
     same-instant rest must run in FIFO order. *)
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 32 do
    Engine.schedule_at e ~time:100.0 (fun () -> log := i :: !log)
  done;
  checkb "stepped" true (Engine.step e);
  checkf "clock at the first event" 100.0 (Engine.now e);
  Alcotest.check_raises "schedule_at below the clock"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:50.0 ignore);
  let d = Engine.dispatch (fun _ _ _ _ _ -> ()) in
  Alcotest.check_raises "schedule_fast below the clock"
    (Invalid_argument "Engine.schedule_fast: time in the past") (fun () ->
      Engine.schedule_fast e ~time:50.0 d 0 0 0 0 0);
  checki "rejected adds left nothing" 31 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "fifo at one instant" (List.init 32 succ) (List.rev !log);
  (* [run ~until] short of the minimum only peeks: a time between the
     parked clock and that minimum stays legal and runs first *)
  let e = Engine.create () and log = ref [] in
  for i = 1 to 32 do
    Engine.schedule_at e ~time:5.0 (fun () -> log := i :: !log)
  done;
  Engine.run ~until:2.0 e;
  checki "nothing ran" 0 (Engine.events_executed e);
  Engine.schedule_at e ~time:3.0 (fun () -> log := 0 :: !log);
  Engine.run e;
  checki "all ran" 33 (Engine.events_executed e);
  checki "in-between event first" 0 (List.nth (List.rev !log) 0)

(* ---------------- engine error paths ---------------- *)

let test_engine_rejects_past_and_bad_args () =
  let e = Engine.create () in
  Engine.schedule e ~delay:2.0 (fun () -> ());
  Engine.run e;
  checkf "clock" 2.0 (Engine.now e);
  Alcotest.check_raises "schedule_at in the past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-0.5) (fun () -> ()));
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Engine.every: non-positive interval") (fun () ->
      Engine.every e ~interval:0.0 (fun () -> ()));
  let d = Engine.dispatch (fun _ _ _ _ _ -> ()) in
  Alcotest.check_raises "schedule_fast in the past"
    (Invalid_argument "Engine.schedule_fast: time in the past") (fun () ->
      Engine.schedule_fast e ~time:1.0 d 0 0 0 0 0);
  checki "nothing slipped into the queue" 0 (Engine.pending e)

(* ---------------- until-window edges ---------------- *)

let test_engine_until_boundary_inclusive () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := `At :: !log);
  Engine.schedule e ~delay:2.0000001 (fun () -> log := `After :: !log);
  Engine.run ~until:2.0 e;
  checkb "event exactly at the horizon ran" true (!log = [ `At ]);
  checki "event just past it pends" 1 (Engine.pending e);
  checkf "clock parked at until" 2.0 (Engine.now e)

let test_engine_until_in_the_past_is_noop () =
  let e = Engine.create () in
  Engine.schedule e ~delay:3.0 (fun () -> ());
  Engine.run e;
  Engine.schedule_at e ~time:5.0 (fun () -> ());
  Engine.run ~until:1.0 e;
  checkf "clock never rewinds" 3.0 (Engine.now e);
  checki "future event untouched" 1 (Engine.pending e)

(* ---------------- periodic task: O(1) live slots ---------------- *)

let test_every_constant_live_records () =
  (* One [every] task fires N times off a single ticket that is
     re-added after each firing; with nothing else scheduled, the queue
     never holds more than that one ticket, so the high-water mark pins
     the O(1) claim structurally — the old recursive-closure engine
     also kept one pending event, but allocated a fresh closure per
     tick. *)
  let e = Engine.create () in
  let n = 10_000 in
  let ticks = ref 0 in
  Engine.every e ~interval:1.0 ~until:(float_of_int n) (fun () -> incr ticks);
  Engine.run e;
  checki "every tick fired" n !ticks;
  checki "all counted as executed" n (Engine.events_executed e);
  checki "one live event record throughout" 1 (Engine.heap_high_water e)

let test_every_reenqueues_after_body () =
  (* The tick's ticket goes back on the queue after its body ran, so an
     event the body scheduled for the very next firing instant was
     inserted first and pops first — the FIFO order the old recursive
     closure produced. *)
  let e = Engine.create () in
  let log = ref [] in
  let n = ref 0 in
  Engine.every e ~interval:1.0 ~until:2.0 (fun () ->
      incr n;
      let i = !n in
      log := `Tick i :: !log;
      if i = 1 then Engine.schedule e ~delay:1.0 (fun () -> log := `Probe :: !log));
  Engine.run e;
  checkb "probe pops before the tied second tick" true
    (List.rev !log = [ `Tick 1; `Probe; `Tick 2 ])

(* ---------------- fired events release their closures ------------ *)

(* Schedule an event whose closure captures a fresh block, and hand back
   a weak pointer to that block; a separate function so no stack slot
   of the test itself keeps the block alive. *)
let[@inline never] schedule_capturing e =
  let w = Weak.create 1 in
  let captured = ref 12345 in
  Weak.set w 0 (Some captured);
  Engine.schedule e ~delay:1.0 (fun () -> captured := !captured + 1);
  w

let[@inline never] every_capturing e =
  let w = Weak.create 1 in
  let captured = ref 0 in
  Weak.set w 0 (Some captured);
  Engine.every e ~interval:1.0 ~until:3.0 (fun () -> incr captured);
  w

let test_fired_closure_collectable () =
  (* A fired event's slot must drop its closure: once the run is over
     the engine (still live) may not keep the event's environment
     reachable. *)
  let e = Engine.create () in
  let w = schedule_capturing e in
  let wt = every_capturing e in
  Engine.run e;
  Gc.full_major ();
  checki "events ran" 4 (Engine.events_executed e);
  checkb "fired closure's capture collected" false (Weak.check w 0);
  checkb "finished tick's capture collected" false (Weak.check wt 0);
  (* the engine stays usable, reusing the freed slots *)
  let ran = ref false in
  Engine.schedule e ~delay:1.0 (fun () -> ran := true);
  Engine.run e;
  checkb "engine reusable" true !ran

(* ---------------- transmit hooks fire in registration order ------- *)

let test_on_transmit_hook_order () =
  let bld = G.Builder.create 2 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:(fun _ -> `Data) in
  let log = ref [] in
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 1 :: !log);
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 2 :: !log);
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 3 :: !log);
  Netsim.set_handler net 1 (fun _ ~from:_ _ -> ());
  Netsim.transmit net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.check
    Alcotest.(list int)
    "hooks fire in registration order" [ 1; 2; 3 ] (List.rev !log)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "calendar-queue",
        [
          qc prop_calendar_matches_heap;
          qc prop_image_order_isomorphic;
          Alcotest.test_case "rejects bad keys" `Quick test_calendar_rejects_bad_keys;
          Alcotest.test_case "below-floor add detected" `Quick
            test_calendar_below_floor_detected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rejects past times and bad args" `Quick
            test_engine_rejects_past_and_bad_args;
          Alcotest.test_case "until boundary inclusive" `Quick
            test_engine_until_boundary_inclusive;
          Alcotest.test_case "until in the past is a no-op" `Quick
            test_engine_until_in_the_past_is_noop;
          Alcotest.test_case "every keeps O(1) live records" `Quick
            test_every_constant_live_records;
          Alcotest.test_case "tick re-enqueue preserves FIFO" `Quick
            test_every_reenqueues_after_body;
          Alcotest.test_case "on_transmit hook order" `Quick
            test_on_transmit_hook_order;
          Alcotest.test_case "fired closure is collectable" `Quick
            test_fired_closure_collectable;
        ] );
    ]
