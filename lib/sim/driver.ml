module Cluster = Raid_core.Cluster
module Workload = Raid_core.Workload
module Rng = Raid_util.Rng

type t = {
  cluster : Cluster.t;
  workload : Workload.t;
  rng : Rng.t;  (* coordinator choice; independent of the workload stream *)
  mutable policy : Scenario.coordinator_policy;
  mutable round_robin_cursor : int;
  mutable operational : int list;
}

let create ~policy ~rng ~workload cluster =
  {
    cluster;
    workload;
    rng;
    policy;
    round_robin_cursor = 0;
    operational = Cluster.operational_sites cluster;
  }

let cluster t = t.cluster
let set_policy t policy = t.policy <- policy
let refresh t = t.operational <- Cluster.operational_sites t.cluster

let next_txn t =
  let id = Cluster.next_txn_id t.cluster in
  Workload.next t.workload ~id

let choose_coordinator t =
  let operational = t.operational in
  if operational = [] then invalid_arg "Driver: no operational site to coordinate";
  match t.policy with
  | Scenario.Fixed site ->
    if List.mem site operational then site
    else invalid_arg (Printf.sprintf "Driver: fixed coordinator %d is not operational" site)
  | Scenario.Uniform_random -> Rng.choose t.rng operational
  | Scenario.Weighted weights ->
    let available = List.filter (fun (s, w) -> w > 0.0 && List.mem s operational) weights in
    if available = [] then Rng.choose t.rng operational
    else Rng.choose_weighted t.rng available
  | Scenario.Round_robin ->
    let n = List.length operational in
    let pick = List.nth operational (t.round_robin_cursor mod n) in
    t.round_robin_cursor <- t.round_robin_cursor + 1;
    pick

let submit_next t =
  let coordinator = choose_coordinator t in
  Cluster.submit t.cluster ~coordinator (next_txn t)

let fail t site =
  Cluster.fail_site t.cluster site;
  refresh t

let recover t site =
  let result = Cluster.recover_site t.cluster site in
  refresh t;
  result

let terminate t site =
  Cluster.terminate_site t.cluster site;
  refresh t
