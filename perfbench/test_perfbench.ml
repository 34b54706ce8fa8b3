(* The benchmark's output check must catch a run whose simulated
   fingerprint differs from its reference in any single field. *)

let tiny =
  { Workload.join_scale with name = "tiny"; nodes = 30; group_size = 8; packets = 20 }

let tiny_faults =
  {
    Workload.churn_faults with
    name = "tiny-faults";
    nodes = 40;
    group_size = 8;
    packets = 40;
    sims = [ { churn = true; link_failures = 0 }; { churn = false; link_failures = 4 } ];
  }

let run w ~seed =
  let results =
    List.map
      (fun sc ->
        let rep = Obs.Report.create ~name:w.Workload.name () in
        let r = Protocols.Runner.run ~report:rep (Protocols.Driver.find_exn "scmp") sc in
        let events =
          Obs.Metrics.counter_value
            (Obs.Metrics.counter (Obs.Report.metrics rep) "engine/events_executed")
        in
        (r, events))
      (Workload.setup w ~seed)
  in
  (List.map fst results, Fingerprint.of_results results)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* Flip the last character of one field's text: a different hex float
   or integer, or a non-empty blackout list. *)
let corrupt (fp : Fingerprint.t) key =
  List.map
    (fun (k, v) ->
      if k <> key then (k, v)
      else if v = "" then (k, "0x1p+0")
      else
        let last = v.[String.length v - 1] in
        (k, String.sub v 0 (String.length v - 1) ^ if last = '1' then "2" else "1"))
    fp

let () =
  List.iter
    (fun w ->
      let rs, fp = run w ~seed:3 in
      let _, again = run w ~seed:3 in
      check (w.name ^ ": same seed, same fingerprint")
        (Fingerprint.diff ~expected:fp ~actual:again = []);
      check (w.name ^ ": one field set per simulation")
        (List.length fp = List.length w.sims * List.length (Fingerprint.of_result (List.hd rs) ~events:0));
      check (w.name ^ ": meets its delivery bar")
        (List.for_all (fun r -> Fingerprint.bar w r = Ok ()) rs);
      check (w.name ^ ": text round trip")
        (Fingerprint.of_string (Fingerprint.to_string fp) = Ok fp);
      List.iter
        (fun (key, _) ->
          let bad = corrupt fp key in
          check
            (Printf.sprintf "%s: corrupted %s detected" w.name key)
            (match Fingerprint.diff ~expected:fp ~actual:bad with
            | [ line ] -> String.starts_with ~prefix:(key ^ ":") line
            | _ -> false))
        fp;
      check (w.name ^ ": dropped field detected")
        (Fingerprint.diff ~expected:fp ~actual:(List.tl fp) <> []))
    [ tiny; tiny_faults ];
  let r = List.hd (fst (run tiny ~seed:3)) in
  check "a missed delivery fails the exact bar"
    (Result.is_error (Fingerprint.bar tiny { r with missed = 1 }));
  check "a low ratio fails the fault bar"
    (Result.is_error (Fingerprint.bar tiny_faults { r with delivery_ratio = 0.9 }));
  check "malformed text is rejected"
    (Result.is_error (Fingerprint.of_string "deliveries"));
  if !failures > 0 then exit 1;
  print_endline "perfbench: fingerprint checks passed"
