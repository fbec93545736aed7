type replication = Full | Partial of Placement.spec

type durability = In_memory | Durable_wal of { checkpoint_interval : int }

type recovery_policy = On_demand | Two_step of { threshold : float; batch_size : int }

type t = {
  num_sites : int;
  num_items : int;
  cost : Cost_model.t;
  replication : replication;
  recovery : recovery_policy;
  spawn_backups : bool;
  durability : durability;
  embed_clears : bool;
  faillocks_enabled : bool;
}

let validate t =
  if t.num_sites <= 0 then invalid_arg "Config: num_sites must be positive";
  if t.num_sites > 1024 then invalid_arg "Config: at most 1024 sites supported";
  if t.num_items <= 0 then invalid_arg "Config: num_items must be positive";
  (match t.replication with
  | Full -> ()
  | Partial spec ->
    (* Resolution validates the spec (positive factor, well-formed
       affinity map); a factor >= 1 always leaves every item a copy. *)
    ignore (Placement.make ~num_sites:t.num_sites ~num_items:t.num_items spec));
  (match t.durability with
  | In_memory -> ()
  | Durable_wal { checkpoint_interval } ->
    if checkpoint_interval <= 0 then
      invalid_arg "Config: checkpoint_interval must be positive");
  (match t.recovery with
  | On_demand -> ()
  | Two_step { threshold; batch_size } ->
    if threshold < 0.0 || threshold > 1.0 then
      invalid_arg "Config: two-step threshold outside [0,1]";
    if batch_size <= 0 then invalid_arg "Config: two-step batch_size must be positive");
  t

let make ?(cost = Cost_model.calibrated) ?(replication = Full) ?(recovery = On_demand)
    ?(spawn_backups = false) ?(durability = In_memory) ?(embed_clears = false)
    ?(faillocks_enabled = true) ~num_sites ~num_items () =
  validate
    {
      num_sites;
      num_items;
      cost;
      replication;
      recovery;
      spawn_backups;
      durability;
      embed_clears;
      faillocks_enabled;
    }

let placement t =
  match t.replication with
  | Full -> Placement.full ~num_sites:t.num_sites ~num_items:t.num_items
  | Partial spec -> Placement.make ~num_sites:t.num_sites ~num_items:t.num_items spec

let stores t ~site ~item =
  if site < 0 || site >= t.num_sites then invalid_arg "Config.stores: bad site";
  if item < 0 || item >= t.num_items then invalid_arg "Config.stores: bad item";
  Placement.holds (placement t) ~site ~item
