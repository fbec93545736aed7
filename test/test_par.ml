(* Tests for the domain pool: order preservation, sequential equivalence,
   exception propagation from worker domains, and end-to-end determinism
   of a parallel sweep against its sequential twin. *)

module Pool = Raid_par.Pool

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int))
    "4 domains, 100 items" expected
    (Pool.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "more domains than items" expected
    (Pool.map ~domains:16 (fun x -> x * x) xs)

let test_sequential_equivalence () =
  let xs = List.init 37 (fun i -> i - 5) in
  let f x = (x * 3) - 1 in
  Alcotest.(check (list int)) "domains=1 is List.map" (List.map f xs) (Pool.map ~domains:1 f xs);
  Alcotest.(check (list int)) "empty list" [] (Pool.map ~domains:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Pool.map ~domains:4 f [ 9 ])

let test_exception_propagation () =
  Alcotest.check_raises "worker exception reaches the caller" (Failure "boom-7") (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x -> if x = 7 then failwith "boom-7" else x)
           (List.init 20 Fun.id)));
  (* With several failures the leftmost one wins, regardless of which
     domain finished first. *)
  Alcotest.check_raises "leftmost failure wins" (Failure "boom-3") (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x -> if x >= 3 then failwith (Printf.sprintf "boom-%d" x) else x)
           (List.init 20 Fun.id)))

let test_early_stop_on_failure () =
  (* Regression: once a worker records a failure, no worker may claim new
     items (the whole remaining list used to be evaluated just to be
     discarded).  The first item poisons the run; every other item parks
     on a gate the poison item opens just before raising, then burns a
     beat so the pool's failure flag is set well before any worker goes
     back to the claim loop.  If claiming kept going, (nearly) all items
     would run; with the stop, only the in-flight handful does. *)
  let n = 200 in
  let gate = Atomic.make false in
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map ~domains:4
          (fun x ->
            if x = 0 then begin
              Atomic.set gate true;
              failwith "poison"
            end
            else begin
              while not (Atomic.get gate) do
                Domain.cpu_relax ()
              done;
              for _ = 1 to 10_000 do
                Domain.cpu_relax ()
              done;
              Atomic.incr ran;
              x
            end)
          (List.init n Fun.id))
   with Failure _ -> ());
  let ran = Atomic.get ran in
  Alcotest.(check bool)
    (Printf.sprintf "claiming stopped early (%d of %d ran)" ran (n - 1))
    true
    (ran < n / 2);
  (* The leftmost recorded failure still wins deterministically. *)
  Alcotest.check_raises "leftmost evaluated failure" (Failure "poison") (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x -> if x = 0 then failwith "poison" else x)
           (List.init 50 Fun.id)))

let test_validation () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Par.Pool.map: domain count must be at least 1") (fun () ->
      ignore (Pool.map ~domains:0 Fun.id [ 1 ]));
  Alcotest.check_raises "bad default"
    (Invalid_argument "Par.Pool.set_default_domains: domain count must be at least 1") (fun () ->
      Pool.set_default_domains 0)

let test_default_domains () =
  let before = Pool.default_domains () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains before)
    (fun () ->
      Pool.set_default_domains 3;
      Alcotest.(check int) "set/get" 3 (Pool.default_domains ());
      (* ?domains omitted picks up the default. *)
      Alcotest.(check (list int))
        "default applies" [ 2; 4; 6 ]
        (Pool.map (fun x -> 2 * x) [ 1; 2; 3 ]))

(* The acceptance bar for the whole parallel layer: a real multi-seed
   sweep must produce byte-identical results sequentially and with 4
   domains.  seed_summary is a record of floats and ints, so structural
   equality is bit-level. *)
let test_experiment2_sweep_deterministic () =
  let seeds = List.init 6 (fun i -> i + 1) in
  let sequential = Raid_sim.Scaling.experiment2_seeds ~domains:1 ~seeds () in
  let parallel = Raid_sim.Scaling.experiment2_seeds ~domains:4 ~seeds () in
  Alcotest.(check bool) "sequential = 4 domains" true (sequential = parallel)

let test_cluster_sweep_deterministic () =
  let site_counts = [ 2; 3; 4 ] in
  let sequential = Raid_sim.Scaling.recovery_vs_cluster_size ~domains:1 ~site_counts () in
  let parallel = Raid_sim.Scaling.recovery_vs_cluster_size ~domains:4 ~site_counts () in
  Alcotest.(check bool) "sequential = 4 domains" true (sequential = parallel)

let suite =
  [
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "sequential equivalence" `Quick test_sequential_equivalence;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "early stop on failure" `Quick test_early_stop_on_failure;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "default domains" `Quick test_default_domains;
    Alcotest.test_case "experiment-2 sweep determinism" `Slow test_experiment2_sweep_deterministic;
    Alcotest.test_case "cluster-size sweep determinism" `Slow test_cluster_sweep_deterministic;
  ]
