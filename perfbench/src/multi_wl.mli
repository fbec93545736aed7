(** The [multi200] workload: {!Raid_multi.run} with 200 tenants x 8 sites
    x 64 items, durable WALs group-committed into one shared log per
    shard (group 64), 8 shards over at most [nproc] domains, and a site
    failure and recovery in every 10th tenant.

    Each run first checks that {!Raid_multi.csv} is byte-identical on one
    domain and on [nproc] domains (the one-domain run also gives the
    deterministic allocation count), then repeats the run until the time
    budget is spent.  With a transaction budget [Txns n], [n] is the
    per-tenant transaction count and only the check runs. *)

val run : seed:int -> budget:Outcome.budget -> traced:bool -> Outcome.t
