type candidate_set = Both | Least_cost_only | Shortest_delay_only

type t = {
  mutable apsp : Netgraph.Apsp.t;
  tree : Tree.t;
  bound : Bound.t;
  candidates : candidate_set;
  mutable max_ul : float;  (* largest member unicast delay, 0 if none *)
  mutable last_graft : Netgraph.Path.t option;
}

let create ?(candidates = Both) apsp ~root ~bound () =
  let g = Netgraph.Apsp.graph apsp in
  {
    apsp;
    tree = Tree.create g ~root;
    bound;
    candidates;
    max_ul = 0.0;
    last_graft = None;
  }

let tree t = t.tree
let set_apsp t apsp = t.apsp <- apsp
let bound t = t.bound

let current_limit t =
  if t.max_ul = 0.0 && Tree.member_count t.tree = 0 then infinity
  else Bound.limit t.bound ~max_unicast_delay:t.max_ul

let last_graft t = t.last_graft

(* Cost a graft path would add: links not already carried by the tree.
   The path lives implicitly in the SPT's predecessor chain —
   [fold_path_edges] visits its edges head to tail without allocating
   the node list, so the accumulation order is exactly the left fold
   over the materialized path and the returned float is bit-identical.
   Each fold step carries the dense edge id, so the per-edge cost is an
   O(1) array read — no adjacency scan at all. [cap] short-circuits
   once the running sum strictly exceeds the best added cost seen so
   far: the candidate has already lost (any capped-out value compares
   the same way against the incumbent). *)
let added_cost ?(cap = infinity) t spt s =
  let g = Tree.graph t.tree in
  let tr = t.tree in
  match
    Netgraph.Dijkstra.fold_path_edges spt 0.0 s ~f:(fun acc e a b ->
        if acc > cap then acc
        else if Tree.on_tree_edge tr a b then acc
        else acc +. Netgraph.Graph.edge_cost g e)
  with
  | Some ac -> ac
  | None -> infinity

let repair_limit_violations t limit =
  if Float.is_finite limit then begin
    let g = Tree.graph t.tree in
    let root = Tree.root t.tree in
    (* Each pass re-grafts at most every member once; delays only shrink
       toward unicast optimum, so n passes certainly suffice. *)
    let rec passes remaining =
      if remaining > 0 then begin
        let d = Tree.delays t.tree in
        let violators =
          List.filter (fun m -> d.(m) > limit +. 1e-9) (Tree.members t.tree)
        in
        if violators <> [] then begin
          List.iter
            (fun m ->
              match Netgraph.Apsp.sl_path t.apsp root m with
              | Some p -> Tree.graft_path t.tree p
              | None -> ())
            violators;
          passes (remaining - 1)
        end
      end
    in
    passes (Netgraph.Graph.node_count g)
  end

let join t s =
  let root = Tree.root t.tree in
  t.last_graft <- None;
  if Tree.on_tree t.tree s then begin
    (* Already a relay (or the root): just mark membership (§III.B: the
       DR only informs the m-router; the tree is unchanged). *)
    Tree.set_member t.tree s;
    if s <> root then t.max_ul <- Float.max t.max_ul (Netgraph.Apsp.delay t.apsp root s)
  end
  else begin
    let ul = Netgraph.Apsp.delay t.apsp root s in
    if not (Float.is_finite ul) then
      invalid_arg "Dcdm.join: member unreachable from the m-router";
    let new_max_ul = Float.max t.max_ul ul in
    let limit = Bound.limit t.bound ~max_unicast_delay:new_max_ul in
    let d = Tree.delays t.tree in
    (* Candidate graft paths: for each on-tree router [v], P_lc(v, s)
       and/or P_sl(v, s), in tree order v -> s. The hot path never
       materializes a candidate: the path delay and full cost are scalar
       reads off the memoized Dijkstra SPT (the companion metric is
       summed in the same order [Path.delay] would, so feasibility and
       cost decisions are bit-identical to materializing the path), the
       added-cost walk folds over the SPT predecessor chain in place,
       and only the winning candidate is turned into a node list. *)
    let apsp = t.apsp in
    let best = ref None in
    (* Feasibility of a candidate: the new member's multicast delay —
       graft node's multicast delay plus path delay — within the limit. *)
    let consider v ~pd spt =
      let ml = d.(v) +. pd in
      (* [pd < infinity] excludes unreachable candidates (matters only
         when the limit itself is infinite). *)
      if pd < infinity && ml <= limit +. 1e-9 then begin
        let cap = match !best with Some (bac, _, _) -> bac | None -> infinity in
        let ac = added_cost ~cap t spt s in
        match !best with
        | Some (bac, bml, _) when bac < ac || (bac = ac && bml <= ml) -> ()
        | _ -> best := Some (ac, ml, spt)
      end
    in
    Tree.iter_nodes t.tree
      (fun v ->
        (* Node-level prefilter: the cheapest possible candidate delay
           through [v]. The sl path minimizes delay, so in [Both] mode
           its infeasibility rules out the lc candidate too. *)
        let min_pd =
          match t.candidates with
          | Both | Shortest_delay_only ->
            Netgraph.Dijkstra.dist (Netgraph.Apsp.sl_tree apsp v) s
          | Least_cost_only ->
            Netgraph.Dijkstra.other_dist (Netgraph.Apsp.lc_tree apsp v) s
        in
        if d.(v) +. min_pd <= limit +. 1e-9 then begin
          (match t.candidates with
          | Both | Least_cost_only ->
            let lc = Netgraph.Apsp.lc_tree apsp v in
            consider v ~pd:(Netgraph.Dijkstra.other_dist lc s) lc
          | Shortest_delay_only -> ());
          match t.candidates with
          | Both | Shortest_delay_only ->
            let sl = Netgraph.Apsp.sl_tree apsp v in
            consider v ~pd:(Netgraph.Dijkstra.dist sl s) sl
          | Least_cost_only -> ()
        end);
    let chosen =
      match !best with
      | Some (_, _, spt) -> (
        match Netgraph.Dijkstra.path spt s with
        | Some p -> p
        | None -> assert false (* finite added cost implies reachable *))
      | None ->
        (* Unreachable only if limit < ul, which Bound.limit rules out
           (factor >= 1); fall back defensively to the shortest-delay
           path from the root. *)
        (match Netgraph.Apsp.sl_path t.apsp root s with
        | Some p -> p
        | None -> invalid_arg "Dcdm.join: member unreachable from the m-router")
    in
    Tree.graft_path t.tree chosen;
    Tree.set_member t.tree s;
    t.max_ul <- new_max_ul;
    t.last_graft <- Some chosen;
    repair_limit_violations t limit
  end

let leave t s =
  if Tree.is_member t.tree s then begin
    Tree.unset_member t.tree s;
    Tree.prune_upward t.tree s;
    (* The dynamic bound follows the surviving membership — and may
       tighten when the departed member was the farthest one. Members
       whose grafts were only feasible under the old, looser bound are
       re-grafted via their shortest-delay paths, restoring the
       invariant that every member's multicast delay stays within the
       current bound (checked by Check.Invariant.check_delay_bound). *)
    let root = Tree.root t.tree in
    t.max_ul <-
      List.fold_left
        (fun acc m ->
          if m = root then acc else Float.max acc (Netgraph.Apsp.delay t.apsp root m))
        0.0 (Tree.members t.tree);
    repair_limit_violations t (current_limit t)
  end

let build ?candidates apsp ~root ~bound ~members =
  let t = create ?candidates apsp ~root ~bound () in
  List.iter (join t) members;
  tree t
