(* The simulated fingerprint of one run: every [Runner.result] field
   plus the engine's executed-event count. A speed-only change leaves
   it identical, so every timed run must reproduce the reference taken
   for its workload and seed. Floats are written in hex ("%h"), so
   equality of the text is bit equality of the values. *)

type t = (string * string) list

let of_result (r : Protocols.Runner.result) ~events : t =
  let f = Printf.sprintf "%h" and i = string_of_int in
  [
    ("data_overhead", f r.data_overhead);
    ("protocol_overhead", f r.protocol_overhead);
    ("max_delay", f r.max_delay);
    ("mean_delay", f r.mean_delay);
    ("data_transmissions", i r.data_transmissions);
    ("control_transmissions", i r.control_transmissions);
    ("deliveries", i r.deliveries);
    ("duplicates", i r.duplicates);
    ("spurious", i r.spurious);
    ("missed", i r.missed);
    ("packets_sent", i r.packets_sent);
    ("dropped", i r.dropped);
    ("delivery_ratio", f r.delivery_ratio);
    ("routes_epochs", i r.routes_epochs);
    ("spt_computed", i r.spt_computed);
    ("spt_invalidated", i r.spt_invalidated);
    ("blackouts", String.concat "," (List.map f r.blackouts));
    ("events", i events);
  ]

(* A run of several simulations: each one's fields, keyed by its index
   in the workload's [sims]. *)
let of_results (rs : (Protocols.Runner.result * int) list) : t =
  List.concat
    (List.mapi
       (fun i (r, events) ->
         List.map (fun (k, v) -> (Printf.sprintf "%d.%s" i k, v)) (of_result r ~events))
       rs)

(* The fields a [~check:true] run must share with a check-off run. The
   verifier's checkpoints are engine events of their own, and its
   reachability test asks the routing cache for the m-router's
   distances, which can build one more SPT. *)
let verifier_view (t : t) =
  List.filter (fun (k, _) -> k <> "events" && k <> "spt_computed") t

let to_string (t : t) =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) t)

let of_string s : (t, string) result =
  let field kv =
    match String.index_opt kv '=' with
    | Some i ->
      Ok (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> Error (Printf.sprintf "malformed fingerprint field %S" kv)
  in
  List.fold_right
    (fun kv acc ->
      match (acc, field kv) with
      | Ok fields, Ok f -> Ok (f :: fields)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    (String.split_on_char ';' s)
    (Ok [])

(* One line per field that differs, is missing, or is unexpected. *)
let diff ~(expected : t) ~(actual : t) =
  let missing =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k actual with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s: expected %s, got %s" k v v')
        | None -> Some (Printf.sprintf "%s: missing" k))
      expected
  in
  let extra =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k expected then None
        else Some (Printf.sprintf "%s: unexpected" k))
      actual
  in
  missing @ extra

(* The workload's delivery bar, which the reference run must meet
   besides reproducing itself. *)
let bar (w : Workload.t) (r : Protocols.Runner.result) =
  match w.bar with
  | Workload.Exact ->
    if r.duplicates = 0 && r.spurious = 0 && r.missed = 0
       && r.delivery_ratio = 1.0
    then Ok ()
    else
      Error
        (Printf.sprintf
           "%s: duplicates=%d spurious=%d missed=%d delivery_ratio=%h, \
            expected 0/0/0/1.0"
           w.name r.duplicates r.spurious r.missed r.delivery_ratio)
  | Workload.Min_ratio floor ->
    if r.delivery_ratio >= floor then Ok ()
    else
      Error
        (Printf.sprintf "%s: delivery_ratio %.6f below %.2f" w.name
           r.delivery_ratio floor)
