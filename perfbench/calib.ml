(* A fixed piece of work that uses nothing from the simulator. Its run
   time follows the host's speed and nothing else, so run.py scales the
   simulator's timings by it to take host-speed drift out of them. No
   change to the simulator can move it.

   It has two parts, each tracking a different mix of the workloads'
   slow-downs: integer hashing, float arithmetic and short-lived
   allocation over a working set that fits in the L1/L2 caches, then a
   small discrete-event simulation (a binary heap of timed events over
   a 2000-node graph, per-node state in a hash table, a boxed record
   per delivery). *)

let lcg s = ((s * 1103515245) + 12345) land 0x3FFF_FFFF

let compute () =
  let size = 1 lsl 12 in
  let a = Array.make size 0.0 in
  let h = Hashtbl.create 16 in
  let s = ref 0x2545F491 and acc = ref 0.0 and live = ref [] in
  for i = 1 to 400_000 do
    s := lcg !s;
    let k = !s land (size - 1) in
    Hashtbl.replace h (k land 0x3FF) i;
    acc := (!acc *. 0.999) +. a.(k);
    a.((k * 7) land (size - 1)) <- float_of_int i;
    live := (k, !acc) :: (if i land 255 = 0 then [] else !live)
  done;
  Hashtbl.length h + List.length !live + int_of_float !acc

let events () =
  let cap = 1 lsl 13 in
  let times = Array.make cap 0.0 and nodes = Array.make cap 0 in
  let len = ref 0 in
  let push t v =
    let i = ref !len in
    incr len;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      nodes.(!i) <- nodes.(p);
      i := p
    done;
    times.(!i) <- t;
    nodes.(!i) <- v
  in
  let pop () =
    let t = times.(0) and v = nodes.(0) in
    decr len;
    let lt = times.(!len) and lv = nodes.(!len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !len then sifting := false
      else
        let c = if l + 1 < !len && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < lt then (
          times.(!i) <- times.(c);
          nodes.(!i) <- nodes.(c);
          i := c)
        else sifting := false
    done;
    times.(!i) <- lt;
    nodes.(!i) <- lv;
    (t, v)
  in
  let n = 2000 in
  let adj = Array.init n (fun i -> Array.init 4 (fun j -> ((i * 7) + (j * 131) + 17) mod n)) in
  let state = Hashtbl.create 16 in
  let s = ref 0x2545F491 and delivered = ref 0 and log = ref [] in
  for i = 0 to 4000 do
    push (float_of_int i *. 0.001) (i mod n)
  done;
  for _ = 1 to 150_000 do
    let t, v = pop () in
    let c = Option.value (Hashtbl.find_opt state v) ~default:0 in
    Hashtbl.replace state v (c + 1);
    incr delivered;
    log := (t, v, c) :: (if !delivered land 127 = 0 then [] else !log);
    s := lcg !s;
    push (t +. 0.001 +. (float_of_int (!s land 1023) *. 1e-6)) adj.(v).(!s lsr 10 land 3)
  done;
  !delivered + Hashtbl.length state + List.length !log

(* Seconds one pass of both parts takes, as the mean of four passes
   after a first one. The first pass pays the fresh process's page
   faults and heap growth, which follow the host's memory rather than
   its speed. A single pass (0.07 s) is short enough that one host
   hiccup moves it by a quarter, so four are averaged. *)
let passes = 4

let time () =
  let pass () = compute () + events () in
  let warm = pass () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    if pass () <> warm then exit 3
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int passes

let () = Printf.printf "%.6f\n" (time ())
