(* One benchmark process: one run from a workload seed to a checked
   result, the workload's simulations one after another.
   perfbench/run.py starts a fresh process per run, so no memo, heap or
   RSS high-water mark outlives a run.

     scmp_bench.exe ref    WORKLOAD SEED
     scmp_bench.exe run    WORKLOAD SEED FINGERPRINT
     scmp_bench.exe trace  WORKLOAD SEED FINGERPRINT OPS_FILE
     scmp_bench.exe replay WORKLOAD SEED OPS_FILE

   [ref] prints the reference fingerprint on stdout; the others print
   one JSON object. A failed check exits 1 with the reason on stderr. *)

let now = Unix.gettimeofday

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let scmp = Protocols.Driver.find_exn "scmp"

let counter rep name =
  Obs.Metrics.counter_value (Obs.Metrics.counter (Obs.Report.metrics rep) name)

let gauge rep name =
  Obs.Metrics.gauge_value (Obs.Metrics.gauge (Obs.Report.metrics rep) name)

let expect_fingerprint ~expected actual =
  let expected =
    match Fingerprint.of_string expected with
    | Ok fp -> fp
    | Error e -> fail "%s" e
  in
  match Fingerprint.diff ~expected ~actual with
  | [] -> ()
  | lines -> fail "fingerprint mismatch: %s" (String.concat "; " lines)

(* The emitted report must carry its simulation's own event count. *)
let check_report text ~events =
  let needle = Printf.sprintf "\"engine/events_executed\":%d," events in
  let n = String.length needle and len = String.length text in
  let rec matches i j = j = n || (text.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec found i = i + n <= len && (matches i 0 || found (i + 1)) in
  if not (found 0) then fail "report lacks %s" needle

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb *. 1024. /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let print_json fields = print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

let report_error text ~events =
  match check_report text ~events with
  | () -> None
  | exception Check_failed msg -> Some msg

(* The checks of a timed or traced run: each simulation's emitted report
   (its [report_error]) and the run's fingerprint. *)
let outputs_error ~expected sims =
  match List.find_map (fun (_, _, e) -> e) sims with
  | Some _ as e -> e
  | None -> (
    let fp = Fingerprint.of_results (List.map (fun (r, events, _) -> (r, events)) sims) in
    match expect_fingerprint ~expected fp with
    | () -> None
    | exception Check_failed msg -> Some msg)

let min_delivery_ratio results =
  List.fold_left
    (fun acc (r : Protocols.Runner.result) -> Float.min acc r.delivery_ratio)
    1.0 results

(* Measurements are printed even for a run that failed its check, which
   then exits 1. *)
let print_result ~error fields =
  print_json
    (fields
    @ [ ("error", match error with None -> Obs.Json.Null | Some m -> Obs.Json.String m) ]);
  if error <> None then exit 1

let num x = Obs.Json.Float x

(* Untimed reference: check-off runs of the simulations give the
   fingerprint, then a [~check:true] run of each scenario must pass the
   invariant verifier and agree with it. *)
let reference w ~seed =
  let runs =
    List.map
      (fun sc ->
        let rep = Obs.Report.create ~name:w.Workload.name () in
        let r = Protocols.Runner.run ~report:rep scmp sc in
        (sc, r, counter rep "engine/events_executed"))
      (Workload.setup w ~seed)
  in
  (* Printed before the checks, so that timed runs can still be compared
     with it when the verifier trips. *)
  print_endline
    (Fingerprint.to_string
       (Fingerprint.of_results (List.map (fun (_, r, events) -> (r, events)) runs)));
  List.iteri
    (fun i (sc, r, _) ->
      let checked = Protocols.Runner.run ~check:true scmp sc in
      let view r = Fingerprint.verifier_view (Fingerprint.of_result r ~events:0) in
      (match Fingerprint.diff ~expected:(view r) ~actual:(view checked) with
      | [] -> ()
      | lines -> fail "simulation %d: check-on run differs: %s" i (String.concat "; " lines));
      match Fingerprint.bar w r with
      | Ok () -> ()
      | Error e -> fail "simulation %d: %s" i e)
    runs

let timed w ~seed ~expected =
  let t0 = now () in
  let scs = Workload.setup w ~seed in
  let t1 = now () in
  let run_s = ref 0. in
  let sims =
    List.map
      (fun sc ->
        let rep = Obs.Report.create ~name:w.Workload.name () in
        let ta = now () in
        let r = Protocols.Runner.run ~report:rep scmp sc in
        run_s := !run_s +. (now () -. ta);
        let events = counter rep "engine/events_executed" in
        (r, events, report_error (Obs.Report.to_string rep) ~events))
      scs
  in
  let error = outputs_error ~expected sims in
  let t3 = now () in
  let run_s = !run_s in
  let events = List.fold_left (fun acc (_, e, _) -> acc + e) 0 sims in
  print_result ~error
    [
      ("wall_s", num (t3 -. t0));
      ("setup_s", num (t1 -. t0));
      ("run_s", num run_s);
      ("events_per_s", num (float_of_int events /. run_s));
      ("peak_rss_mb", num (peak_rss_mb ()));
      ("alloc_mwords", num (alloc_words (Gc.quick_stat ()) /. 1e6));
      ("delivery_ratio", num (min_delivery_ratio (List.map (fun (r, _, _) -> r) sims)));
    ]

(* ---- traced run ---------------------------------------------------- *)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

type span = { name : string; secs : float; alloc_mw : float; minor_mw : float; top_mb : float }

let spans : span list ref = ref []

(* Wall time and GC deltas around one call into a layer. *)
let span name f =
  let g0 = Gc.quick_stat () and t0 = now () in
  let v = f () in
  let t1 = now () and g1 = Gc.quick_stat () in
  spans :=
    {
      name;
      secs = t1 -. t0;
      alloc_mw = (alloc_words g1 -. alloc_words g0) /. 1e6;
      minor_mw = (g1.minor_words -. g0.minor_words) /. 1e6;
      top_mb = mb_of_words g1.top_heap_words;
    }
    :: !spans;
  v

(* A span name's calls summed; [top_mb] is the highest top heap. *)
let find_span name =
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        {
          acc with
          secs = acc.secs +. s.secs;
          alloc_mw = acc.alloc_mw +. s.alloc_mw;
          minor_mw = acc.minor_mw +. s.minor_mw;
          top_mb = Float.max acc.top_mb s.top_mb;
        })
    { name; secs = 0.; alloc_mw = 0.; minor_mw = 0.; top_mb = 0. }
    !spans

(* The scmp driver with its host-facing calls observed: joins and
   leaves are logged in order for the DCDM replay, and the first send
   reads the m-router's accumulated tree-compute time, which splits it
   between the join and data phases. Neither schedules an event, so the
   run's fingerprint is unchanged. *)
let observed_scmp ~ops ~join_phase_dcdm_s : Protocols.Driver.t =
  (module struct
    let name = Protocols.Driver.name scmp
    let display = Protocols.Driver.display scmp

    let setup (cfg : Protocols.Driver.config) =
      let inst = Protocols.Driver.setup scmp cfg in
      let log op m = ops := (op, m) :: !ops in
      {
        inst with
        Protocols.Driver.join =
          (fun ~group m ->
            log 'J' m;
            inst.join ~group m);
        leave =
          (fun ~group m ->
            log 'L' m;
            inst.leave ~group m);
        send =
          (fun ~group ~src ~seq ->
            if Option.is_none !join_phase_dcdm_s then begin
              let m = Obs.Metrics.create () in
              inst.observe m;
              join_phase_dcdm_s :=
                Some
                  (Obs.Metrics.gauge_value
                     (Obs.Metrics.gauge m "scmp/tree_compute_wall_s"))
            end;
            inst.send ~group ~src ~seq);
      }
  end)

type traced_sim = {
  rep : Obs.Report.t;
  result : Protocols.Runner.result;
  events : int;
  report_error : string option;
  report_bytes : int;
  ops : (char * int) list;  (** joins and leaves, in order *)
  join_dcdm_s : float;  (** tree-compute seconds before the first send *)
  run_s : float;  (** the span around [Runner.run] *)
}

let traced w ~seed ~expected ~ops_file =
  let t0 = now () in
  let spec = span "topology.generate" (fun () -> Workload.topology w ~seed) in
  let center = span "placement.pick" (fun () -> Workload.place spec) in
  let scs = span "runner.make" (fun () -> Workload.scenarios w ~seed spec ~center) in
  let sims =
    List.map
      (fun sc ->
        let rep = Obs.Report.create ~name:w.Workload.name () in
        let ops = ref [] and join_phase_dcdm_s = ref None in
        let driver = observed_scmp ~ops ~join_phase_dcdm_s in
        let result = span "runner.run" (fun () -> Protocols.Runner.run ~report:rep driver sc) in
        let run_s = (List.hd !spans).secs in
        let text = span "report.emit" (fun () -> Obs.Report.to_string rep) in
        let events = counter rep "engine/events_executed" in
        {
          rep;
          result;
          events;
          report_error = report_error text ~events;
          report_bytes = String.length text;
          ops = List.rev !ops;
          join_dcdm_s =
            Option.value !join_phase_dcdm_s
              ~default:(gauge rep "scmp/tree_compute_wall_s");
          run_s;
        })
      scs
  in
  let error =
    outputs_error ~expected (List.map (fun t -> (t.result, t.events, t.report_error)) sims)
  in
  let wall_s = now () -. t0 in
  (* The replay's input: the m-router, then each simulation's joins and
     leaves after a line "S". *)
  let oc = open_out ops_file in
  Printf.fprintf oc "%d\n" center;
  List.iter
    (fun t ->
      output_string oc "S\n";
      List.iter (fun (op, m) -> Printf.fprintf oc "%c %d\n" op m) t.ops)
    sims;
  close_out oc;
  let s = find_span in
  let run = s "runner.run" in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 sims in
  let sumf f = List.fold_left (fun acc t -> acc +. f t) 0. sims in
  let g key = sumf (fun t -> gauge t.rep key) in
  let events = sum (fun t -> t.events) in
  let tree_s = g "scmp/tree_compute_wall_s" in
  let data_s = g "phase/data/wall_s" in
  let join_dcdm = sumf (fun t -> t.join_dcdm_s) in
  let c name key = (name, Obs.Json.Int (sum (fun t -> counter t.rep key))) in
  let faulted_run_s =
    List.fold_left2
      (fun acc t (sim : Workload.sim) -> if sim.link_failures > 0 then acc +. t.run_s else acc)
      0. sims w.sims
  in
  let heap_high_water =
    List.fold_left (fun acc t -> max acc (counter t.rep "engine/heap_high_water")) 0 sims
  in
  print_result ~error
    [
      ("traced.wall_s", num wall_s);
      ("topology.generate_s", num (s "topology.generate").secs);
      ("placement.pick_s", num (s "placement.pick").secs);
      ("placement.top_heap_mb", num (s "placement.pick").top_mb);
      ("runner.make_s", num (s "runner.make").secs);
      ("scmp.tree_compute_s", num tree_s);
      c "scmp.tree_computes" "scmp/tree_computes";
      ("phase.setup_s", num (g "phase/setup/wall_s"));
      ("phase.join_s", num (g "phase/join/wall_s"));
      ("phase.data_s", num data_s);
      ("dcdm.join_phase_s", num join_dcdm);
      ("faulted.run_s", num faulted_run_s);
      ("dcdm.data_phase_s", num (tree_s -. join_dcdm));
      ("phase.data_minus_dcdm_s", num (data_s -. (tree_s -. join_dcdm)));
      c "scmp.branch_packets" "scmp/branch_packets";
      c "scmp.tree_packets" "scmp/tree_packets";
      c "netsim.control_transmissions" "net/control/transmissions";
      c "routes.epochs" "net/routes_epoch";
      c "routes.spt_computed" "routes/spt_computed";
      c "routes.invalidated" "routes/invalidated";
      ("engine.events", Obs.Json.Int events);
      ("engine.heap_high_water", Obs.Json.Int heap_high_water);
      ("engine.ns_per_event", num (run.secs /. float_of_int events *. 1e9));
      c "netsim.data_transmissions" "net/data/transmissions";
      c "netsim.dropped" "net/dropped";
      c "delivery.deliveries" "delivery/deliveries";
      c "delivery.missed" "delivery/missed";
      c "delivery.spurious" "delivery/spurious";
      c "delivery.duplicates" "delivery/duplicates";
      ("gc.run_minor_mwords", num run.minor_mw);
      ("gc.run_alloc_mwords", num run.alloc_mw);
      ("gc.run_top_heap_mb", num run.top_mb);
      ("report.emit_s", num (s "report.emit").secs);
      ("report.bytes", Obs.Json.Int (sum (fun t -> t.report_bytes)));
    ]

(* ---- DCDM replay ----------------------------------------------------- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

(* Replays the traced run's join/leave sequences through Dcdm, one
   fresh tree per simulation, each on a graph of its own (a graph shared
   with placement or an earlier replay would have its SPTs memoized
   already). Faults are not replayed: every join and leave runs on the
   intact graph. *)
let replay w ~seed ~ops_file =
  let ic = open_in ops_file in
  let center = int_of_string (input_line ic) in
  (* Sections in reverse, each section's ops in reverse. *)
  let rec read acc =
    match (input_line ic, acc) with
    | "S", _ -> read ([] :: acc)
    | line, ops :: rest ->
      read ((Scanf.sscanf line "%c %d" (fun op m -> (op, m)) :: ops) :: rest)
    | _, [] -> fail "%s: an operation before the first section" ops_file
    | exception End_of_file -> List.rev_map List.rev acc
  in
  let sections = read [] in
  close_in ic;
  let spec = Workload.topology w ~seed in
  let sc = Workload.scenario w Workload.plain ~seed spec ~center in
  let joins = ref [] and leaves = ref [] in
  List.iter
    (fun ops ->
      let g =
        Netgraph.Graph.map_links spec.graph ~f:(fun l ->
            (l.Netgraph.Graph.delay *. sc.delay_scale, l.Netgraph.Graph.cost))
      in
      let d =
        Mtree.Dcdm.create (Netgraph.Apsp.compute g) ~root:center ~bound:sc.scmp_bound ()
      in
      List.iter
        (fun (op, m) ->
          let t0 = now () in
          if op = 'J' then Mtree.Dcdm.join d m else Mtree.Dcdm.leave d m;
          let us = (now () -. t0) *. 1e6 in
          if op = 'J' then joins := us :: !joins else leaves := us :: !leaves)
        ops)
    sections;
  let sorted l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  let js = sorted !joins and ls = sorted !leaves in
  print_json
    [
      ("dcdm.joins", Obs.Json.Int (Array.length js));
      ("dcdm.leaves", Obs.Json.Int (Array.length ls));
      ("dcdm.join_us.p50", num (percentile js 0.5));
      ("dcdm.join_us.p98", num (percentile js 0.98));
      ("dcdm.leave_us.p50", num (percentile ls 0.5));
      ("dcdm.replay_s", num ((Array.fold_left ( +. ) 0. js +. Array.fold_left ( +. ) 0. ls) /. 1e6));
    ]

let () =
  let usage () =
    prerr_endline
      "usage: scmp_bench.exe (ref W SEED | run W SEED FP | trace W SEED FP OPS | \
       replay W SEED OPS)";
    exit 2
  in
  let workload name =
    match Workload.find name with
    | Ok w -> w
    | Error e ->
      prerr_endline e;
      exit 2
  in
  let seed s = match int_of_string_opt s with Some n -> n | None -> usage () in
  try
    match Array.to_list Sys.argv |> List.tl with
    | [ "ref"; w; s ] -> reference (workload w) ~seed:(seed s)
    | [ "run"; w; s; fp ] -> timed (workload w) ~seed:(seed s) ~expected:fp
    | [ "trace"; w; s; fp; ops_file ] ->
      traced (workload w) ~seed:(seed s) ~expected:fp ~ops_file
    | [ "replay"; w; s; ops_file ] -> replay (workload w) ~seed:(seed s) ~ops_file
    | _ -> usage ()
  with Check_failed msg | Check.Invariant.Violation msg ->
    prerr_endline ("check failed: " ^ msg);
    exit 1
