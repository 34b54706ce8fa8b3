(* Benchmark workloads: SCMP simulations built from a seed through the
   same public calls the CLI's [run] subcommand makes. *)

type bar =
  | Exact  (** no duplicate, spurious or missed delivery; ratio 1.0 *)
  | Min_ratio of float  (** delivery ratio at least this *)

(* One simulation of a run. *)
type sim = {
  churn : bool;  (** Poisson churn at 2 joins/s, 5 s mean holding *)
  link_failures : int;  (** permanent link failures in the data phase *)
}

(* A run is one topology and placement, then its [sims] one after
   another, each on its own scenario. *)
type t = {
  name : string;
  nodes : int;
  group_size : int;
  packets : int;
  sims : sim list;
  bar : bar;  (** held by every simulation of the run *)
}

let plain = { churn = false; link_failures = 0 }

let join_scale =
  {
    name = "join-scale";
    nodes = 1000;
    group_size = 250;
    packets = 200;
    sims = [ plain ];
    bar = Exact;
  }

let data_plane =
  {
    name = "data-plane";
    nodes = 200;
    group_size = 50;
    packets = 50_000;
    sims = [ plain ];
    bar = Exact;
  }

(* Churn and link failures run as two simulations: together in one
   simulation they trip the [entry-coherence] invariant on some seeds
   (see README.md). 0.95 is the delivery bar check.sh holds fault runs
   to. *)
let churn_faults =
  {
    name = "churn-faults";
    nodes = 500;
    group_size = 100;
    packets = 2_000;
    sims = [ { churn = true; link_failures = 0 }; { churn = false; link_failures = 40 } ];
    bar = Min_ratio 0.95;
  }

let all = [ join_scale; data_plane; churn_faults ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) all)))

let topology w ~seed = Topology.Waxman.generate ~seed ~n:w.nodes ()

(* Rule 1 placement reads every node's mean delay, so it forces the
   full all-pairs table. *)
let place (spec : Topology.Spec.t) =
  Scmp.Placement.pick
    (Netgraph.Apsp.compute spec.graph)
    Scmp.Placement.Min_avg_delay

(* Seed offsets follow the CLI's [run]: members from [seed + 23],
   churn from [seed + 31]. *)
let scenario w sim ~seed (spec : Topology.Spec.t) ~center =
  let n = Netgraph.Graph.node_count spec.graph in
  let members =
    Scmp_util.Prng.sample
      (Scmp_util.Prng.create (seed + 23))
      (min w.group_size (n - 1))
      n
    |> List.filter (fun x -> x <> center)
  in
  let sc =
    Protocols.Runner.make ~data_count:w.packets ~spec ~center
      ~source:(List.hd members) ~members ()
  in
  let t0 = sc.Protocols.Runner.data_start in
  let t1 = t0 +. (sc.data_interval *. float_of_int w.packets) in
  {
    sc with
    Protocols.Runner.faults =
      (if sim.link_failures = 0 then []
       else
         Eventsim.Faults.random_link_failures ~seed:(seed + 41)
           ~count:sim.link_failures ~t0 ~t1 spec.graph);
    churn =
      (if sim.churn then
         Some
           {
             Protocols.Runner.mean_interarrival = 0.5;
             mean_holding = 5.0;
             horizon = t1;
             churn_seed = seed + 31;
           }
       else None);
  }

let scenarios w ~seed spec ~center =
  List.map (fun sim -> scenario w sim ~seed spec ~center) w.sims

(* Seed to scenarios, the set-up a CLI run pays before [Runner.run]. *)
let setup w ~seed =
  let spec = topology w ~seed in
  scenarios w ~seed spec ~center:(place spec)
