type event =
  | Link_down of Netgraph.Graph.node * Netgraph.Graph.node
  | Link_up of Netgraph.Graph.node * Netgraph.Graph.node
  | Node_down of Netgraph.Graph.node
  | Node_up of Netgraph.Graph.node
  | Partition of Netgraph.Graph.node list
  | Heal of Netgraph.Graph.node list

type spec = { at : float; event : event }

type t = {
  mutable link_downs : int;
  mutable link_ups : int;
  mutable node_downs : int;
  mutable node_ups : int;
  mutable partitions : int;
  mutable heals : int;
}

let side_to_string side =
  String.concat "," (List.map string_of_int side)

let event_to_string = function
  | Link_down (a, b) -> Printf.sprintf "link-down %d-%d" a b
  | Link_up (a, b) -> Printf.sprintf "link-up %d-%d" a b
  | Node_down x -> Printf.sprintf "node-down %d" x
  | Node_up x -> Printf.sprintf "node-up %d" x
  | Partition side -> Printf.sprintf "partition {%s}" (side_to_string side)
  | Heal side -> Printf.sprintf "heal {%s}" (side_to_string side)

let applied t =
  t.link_downs + t.link_ups + t.node_downs + t.node_ups + t.partitions
  + t.heals

(* The cut-set of a bipartition: every base-graph link with exactly one
   endpoint inside [side]. Membership through a dense bool array so the
   scan is O(nodes + links); the result is in the graph's link order,
   which is deterministic (insertion order of the frozen builder). *)
let cut_links graph side =
  let n = Netgraph.Graph.node_count graph in
  let inside = Array.make n false in
  List.iter
    (fun x ->
      if x < 0 || x >= n then invalid_arg "Faults: partition node out of range";
      inside.(x) <- true)
    side;
  List.filter_map
    (fun l ->
      let u = l.Netgraph.Graph.u and v = l.Netgraph.Graph.v in
      if inside.(u) <> inside.(v) then Some (u, v) else None)
    (Netgraph.Graph.links graph)

let apply t net ev =
  match ev with
  | Link_down (a, b) ->
    Netsim.fail_link net a b;
    t.link_downs <- t.link_downs + 1
  | Link_up (a, b) ->
    Netsim.restore_link net a b;
    t.link_ups <- t.link_ups + 1
  | Node_down x ->
    Netsim.fail_node net x;
    t.node_downs <- t.node_downs + 1
  | Node_up x ->
    Netsim.restore_node net x;
    t.node_ups <- t.node_ups + 1
  | Partition side ->
    (* The whole cut-set flips in one atomic batch: in-flight packets
       across it die, and on_topology_change fires once per cut. *)
    Netsim.fail_links net (cut_links (Netsim.graph net) side);
    t.partitions <- t.partitions + 1
  | Heal side ->
    Netsim.restore_links net (cut_links (Netsim.graph net) side);
    t.heals <- t.heals + 1

let install net specs =
  let t =
    { link_downs = 0; link_ups = 0; node_downs = 0; node_ups = 0;
      partitions = 0; heals = 0 }
  in
  List.iter
    (fun s ->
      if s.at < 0.0 then invalid_arg "Faults.install: negative event time";
      Engine.schedule_at (Netsim.engine net) ~time:s.at (fun () ->
          apply t net s.event))
    specs;
  t

(* ---------------- Random schedules ---------------- *)

let random_link_failures ~seed ~count ~t0 ~t1 ?restore_after graph =
  if t1 < t0 then invalid_arg "Faults.random_link_failures: t1 < t0";
  if count < 0 then invalid_arg "Faults.random_link_failures: negative count";
  let links = Array.of_list (Netgraph.Graph.links graph) in
  let rng = Scmp_util.Prng.create seed in
  let k = min count (Array.length links) in
  let idxs = Scmp_util.Prng.sample rng k (Array.length links) in
  List.concat_map
    (fun i ->
      let l = links.(i) in
      let u = l.Netgraph.Graph.u and v = l.Netgraph.Graph.v in
      let at = t0 +. Scmp_util.Prng.float rng (t1 -. t0) in
      let down = { at; event = Link_down (u, v) } in
      match restore_after with
      | None -> [ down ]
      | Some d -> [ down; { at = at +. d; event = Link_up (u, v) } ])
    idxs

let random_partitions ~seed ~count ~t0 ~t1 ?heal_after graph =
  if t1 < t0 then invalid_arg "Faults.random_partitions: t1 < t0";
  if count < 0 then invalid_arg "Faults.random_partitions: negative count";
  let n = Netgraph.Graph.node_count graph in
  if n < 2 then invalid_arg "Faults.random_partitions: graph too small";
  let rng = Scmp_util.Prng.create seed in
  List.concat_map
    (fun _ ->
      (* One side of the bipartition: between 1 and n/2 nodes, so the
         cut is never empty and never the whole node set. *)
      let k = 1 + Scmp_util.Prng.int rng (max 1 (n / 2)) in
      let side = List.sort Int.compare (Scmp_util.Prng.sample rng k n) in
      let at = t0 +. Scmp_util.Prng.float rng (t1 -. t0) in
      let cut = { at; event = Partition side } in
      match heal_after with
      | None -> [ cut ]
      | Some d -> [ cut; { at = at +. d; event = Heal side } ])
    (List.init count (fun i -> i))

(* ---------------- CLI parsing ---------------- *)

(* An event time: finite and non-negative, with -0 read as 0 (the
   engine's queue bins keys by their bit pattern, where -0 sorts below
   every positive time). *)
let time_of_string s =
  match float_of_string_opt s with
  | Some t when Float.is_finite t && t >= 0.0 -> Some (t +. 0.0)
  | Some _ | None -> None

(* "KEYWORD@T", the tail of a restore or heal clause *)
let parse_tail keyword tail =
  match String.split_on_char '@' tail with
  | [ k; at ] when k = keyword -> time_of_string at
  | _ -> None

let split_restore s =
  match String.index_opt s ':' with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

(* One event at [at], or with a [KEYWORD@T'] tail its undo at [T'] too. *)
let with_undo ~keyword ~what ev undo at = function
  | None -> Ok [ { at; event = ev } ]
  | Some tail -> (
    match parse_tail keyword tail with
    | Some at' when at' >= at ->
      Ok [ { at; event = ev }; { at = at'; event = undo } ]
    | Some _ -> Error (Printf.sprintf "%s time precedes %s time" keyword what)
    | None ->
      Error
        (Printf.sprintf "expected :%s@TIME, TIME a finite number >= 0" keyword))

let syntax_error form =
  Error (Printf.sprintf "expected %s, TIME a finite number >= 0" form)

let parse_link_failure s =
  let main, restore = split_restore s in
  let err = syntax_error "A-B@TIME[:restore@TIME]" in
  match String.split_on_char '@' main with
  | [ ends; at ] -> (
    match (String.split_on_char '-' ends, time_of_string at) with
    | [ a; b ], Some at -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <> b ->
        with_undo ~keyword:"restore" ~what:"failure" (Link_down (a, b))
          (Link_up (a, b)) at restore
      | _ -> err)
    | _ -> err)
  | _ -> err

let parse_node_failure s =
  let main, restore = split_restore s in
  let err = syntax_error "NODE@TIME[:restore@TIME]" in
  match String.split_on_char '@' main with
  | [ x; at ] -> (
    match (int_of_string_opt x, time_of_string at) with
    | Some x, Some at ->
      with_undo ~keyword:"restore" ~what:"failure" (Node_down x) (Node_up x) at
        restore
    | _ -> err)
  | _ -> err

let parse_partition s =
  let main, heal = split_restore s in
  let err = syntax_error "A,B,C@TIME[:heal@TIME]" in
  match String.split_on_char '@' main with
  | [ nodes; at ] -> (
    let side =
      List.map int_of_string_opt (String.split_on_char ',' nodes)
    in
    match (time_of_string at, List.exists (fun x -> x = None) side) with
    | Some at, false ->
      let side = List.filter_map (fun x -> x) side in
      if side = [] then err
      else
        with_undo ~keyword:"heal" ~what:"partition" (Partition side)
          (Heal side) at heal
    | _ -> err)
  | _ -> err

let event_nodes = function
  | Link_down (a, b) | Link_up (a, b) -> [ a; b ]
  | Node_down x | Node_up x -> [ x ]
  | Partition side | Heal side -> side

let check_nodes ~nodes specs =
  match
    List.find_opt
      (fun x -> x < 0 || x >= nodes)
      (List.concat_map (fun sp -> event_nodes sp.event) specs)
  with
  | None -> Ok ()
  | Some x ->
    Error
      (Printf.sprintf "node %d out of range for a %d-node topology" x nodes)

let observe t m =
  let set_c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  set_c "faults/link_down" t.link_downs;
  set_c "faults/link_up" t.link_ups;
  set_c "faults/node_down" t.node_downs;
  set_c "faults/node_up" t.node_ups;
  set_c "faults/partition" t.partitions;
  set_c "faults/heal" t.heals
