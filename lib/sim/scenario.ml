type coordinator_policy =
  | Fixed of int
  | Uniform_random
  | Weighted of (int * float) list
  | Round_robin

type action =
  | Run_txns of int
  | Fail of int
  | Recover of int
  | Set_policy of coordinator_policy
  | Run_until_recovered of { site : int; max_txns : int }
  | Run_until_consistent of { max_txns : int }

type t = {
  config : Raid_core.Config.t;
  detection : Raid_core.Cluster.detection;
  workload : Raid_core.Workload.spec;
  policy : coordinator_policy;
  seed : int;
  actions : action list;
}

let make ?(detection = Raid_core.Cluster.Immediate) ?(policy = Uniform_random) ?(seed = 42)
    ~config ~workload actions =
  let num_sites = config.Raid_core.Config.num_sites in
  Raid_core.Workload.validate workload ~num_items:config.Raid_core.Config.num_items;
  List.iter
    (function
      | Fail site | Recover site | Run_until_recovered { site; _ } ->
        if site < 0 || site >= num_sites then
          invalid_arg (Printf.sprintf "Scenario: site %d out of range (%d sites)" site num_sites)
      | Run_txns _ | Set_policy _ | Run_until_consistent _ -> ())
    actions;
  { config; detection; workload; policy; seed; actions }
