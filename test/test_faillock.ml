module Faillock = Raid_core.Faillock

let table () = Faillock.create ~num_items:5 ~num_sites:3

let test_initial () =
  let t = table () in
  Alcotest.(check int) "num_items" 5 (Faillock.num_items t);
  Alcotest.(check int) "num_sites" 3 (Faillock.num_sites t);
  Alcotest.(check int) "nothing locked" 0 (Faillock.total_locked t);
  Alcotest.(check bool) "not locked" false (Faillock.is_locked t ~item:0 ~site:0)

let test_set_clear_transitions () =
  let t = table () in
  Alcotest.(check bool) "fresh set" true (Faillock.set t ~item:2 ~site:1);
  Alcotest.(check bool) "redundant set" false (Faillock.set t ~item:2 ~site:1);
  Alcotest.(check bool) "locked" true (Faillock.is_locked t ~item:2 ~site:1);
  Alcotest.(check bool) "clear transition" true (Faillock.clear t ~item:2 ~site:1);
  Alcotest.(check bool) "redundant clear" false (Faillock.clear t ~item:2 ~site:1)

let test_commit_update () =
  let t = table () in
  (* Site 2 is down: committing item 3 sets its bit, clears others. *)
  ignore (Faillock.set t ~item:3 ~site:0);
  let set_count = ref 0 and cleared = ref 0 in
  Faillock.commit_update t ~item:3 ~site_up:(fun s -> s <> 2) ~set:set_count ~cleared;
  Alcotest.(check int) "one set" 1 !set_count;
  Alcotest.(check int) "one cleared" 1 !cleared;
  Alcotest.(check bool) "bit for down site" true (Faillock.is_locked t ~item:3 ~site:2);
  Alcotest.(check bool) "bit for up site cleared" false (Faillock.is_locked t ~item:3 ~site:0);
  (* Re-running is idempotent (the paper's unconditional re-clear). *)
  let set2 = ref 0 and cleared2 = ref 0 in
  Faillock.commit_update t ~item:3 ~site_up:(fun s -> s <> 2) ~set:set2 ~cleared:cleared2;
  Alcotest.(check int) "no new sets" 0 !set2;
  Alcotest.(check int) "no new clears" 0 !cleared2

let test_locked_items_and_counts () =
  let t = table () in
  ignore (Faillock.set t ~item:0 ~site:1);
  ignore (Faillock.set t ~item:4 ~site:1);
  ignore (Faillock.set t ~item:2 ~site:0);
  Alcotest.(check (list int)) "items for site 1" [ 0; 4 ] (Faillock.locked_items_for t ~site:1);
  Alcotest.(check int) "count for site 1" 2 (Faillock.count_for t ~site:1);
  Alcotest.(check (list int)) "sites for item 0" [ 1 ] (Faillock.locked_sites t ~item:0);
  Alcotest.(check bool) "any locked" true (Faillock.any_locked t ~item:2);
  Alcotest.(check bool) "none locked" false (Faillock.any_locked t ~item:1);
  Alcotest.(check int) "total" 3 (Faillock.total_locked t)

let test_clear_sites () =
  let t = table () in
  ignore (Faillock.set t ~item:1 ~site:0);
  ignore (Faillock.set t ~item:1 ~site:2);
  Alcotest.(check int) "cleared two" 2 (Faillock.clear_sites t ~item:1 ~sites:[ 0; 1; 2 ]);
  Alcotest.(check int) "cleared none" 0 (Faillock.clear_sites t ~item:1 ~sites:[ 0 ])

let test_copy_install_merge () =
  let a = table () in
  ignore (Faillock.set a ~item:0 ~site:0);
  let b = Faillock.copy a in
  ignore (Faillock.set b ~item:1 ~site:1);
  Alcotest.(check bool) "copy independent" false (Faillock.is_locked a ~item:1 ~site:1);
  Faillock.install a ~from:b;
  Alcotest.(check bool) "install equal" true (Faillock.equal a b);
  let c = table () in
  ignore (Faillock.set c ~item:4 ~site:2);
  Faillock.merge a ~from:c;
  Alcotest.(check bool) "merge keeps old" true (Faillock.is_locked a ~item:0 ~site:0);
  Alcotest.(check bool) "merge adds new" true (Faillock.is_locked a ~item:4 ~site:2);
  let wrong = Faillock.create ~num_items:2 ~num_sites:3 in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Faillock: shape mismatch") (fun () ->
      Faillock.install a ~from:wrong)

let test_bounds () =
  let t = table () in
  let item_range = Invalid_argument "Faillock: item out of range"
  and site_range = Invalid_argument "Faillock: site out of range" in
  Alcotest.check_raises "item range" item_range (fun () ->
      ignore (Faillock.is_locked t ~item:5 ~site:0));
  Alcotest.check_raises "set item range" item_range (fun () ->
      ignore (Faillock.set t ~item:(-1) ~site:0));
  Alcotest.check_raises "clear site range" site_range (fun () ->
      ignore (Faillock.clear t ~item:0 ~site:3));
  Alcotest.check_raises "update_for site range" site_range (fun () ->
      Faillock.update_for t ~item:0 ~site:(-1) ~up:false ~set:(ref 0) ~cleared:(ref 0));
  Alcotest.check_raises "commit_update item range" item_range (fun () ->
      Faillock.commit_update t ~item:5 ~site_up:(fun _ -> false) ~set:(ref 0) ~cleared:(ref 0));
  Alcotest.(check int) "failed calls change nothing" 0 (Faillock.total_locked t)

(* Property: commit_update leaves exactly the down sites locked. *)
let prop_commit_update_postcondition =
  QCheck.Test.make ~name:"commit_update postcondition" ~count:300
    QCheck.(pair (list (pair (int_range 0 4) (int_range 0 2))) (int_range 0 7))
    (fun (initial, up_mask) ->
      let t = table () in
      List.iter (fun (item, site) -> ignore (Faillock.set t ~item ~site)) initial;
      let site_up s = (up_mask lsr s) land 1 = 1 in
      let set_count = ref 0 and cleared = ref 0 in
      Faillock.commit_update t ~item:2 ~site_up ~set:set_count ~cleared;
      List.for_all
        (fun s -> Faillock.is_locked t ~item:2 ~site:s = not (site_up s))
        [ 0; 1; 2 ])

let test_iteration_helpers () =
  let t = table () in
  ignore (Faillock.set t ~item:0 ~site:1);
  ignore (Faillock.set t ~item:3 ~site:1);
  ignore (Faillock.set t ~item:4 ~site:2);
  let seen = ref [] in
  Faillock.iter_locked_items_for t ~site:1 (fun item -> seen := item :: !seen);
  Alcotest.(check (list int))
    "iter = locked_items_for"
    (Faillock.locked_items_for t ~site:1)
    (List.rev !seen);
  Alcotest.(check bool) "any for locked site" true (Faillock.any_locked_for t ~site:1);
  Alcotest.(check bool) "none for clean site" false (Faillock.any_locked_for t ~site:0);
  let union = Raid_util.Bitset.create 3 in
  Faillock.union_locked_into ~dst:union t ~item:0;
  Faillock.union_locked_into ~dst:union t ~item:4;
  Alcotest.(check (list int)) "union of rows" [ 1; 2 ] (Raid_util.Bitset.to_list union)

(* Model-based property on a table large enough that its row buckets do
   not come out in item order: 2,000 items x 64 sites, rows inserted in
   descending item order so the row table resizes several times.  A dense
   [bool array array] is the model.  Every query must agree with it,
   every traversal must come out in increasing item order, and the hook
   transitions fired by [install] must arrive in ascending (item, site)
   order. *)
let model_items = 2000
let model_sites = 64

type op =
  | Set of int * int
  | Clear of int * int
  | Commit of int * int list  (* item, down sites *)
  | Update_for of int * int * bool
  | Clear_sites of int * int list
  | Install of (int * int) option * (int * int) list
      (* keep items whose id mod m <> r; bits toggled in the source copy *)
  | Merge of (int * int) list
  | Copy

let show_sites l = String.concat ";" (List.map string_of_int l)
let show_bits l = String.concat ";" (List.map (fun (i, s) -> Printf.sprintf "%d/%d" i s) l)

let show_op = function
  | Set (i, s) -> Printf.sprintf "set %d/%d" i s
  | Clear (i, s) -> Printf.sprintf "clear %d/%d" i s
  | Commit (i, down) -> Printf.sprintf "commit %d down [%s]" i (show_sites down)
  | Update_for (i, s, up) -> Printf.sprintf "update_for %d/%d up=%b" i s up
  | Clear_sites (i, sites) -> Printf.sprintf "clear_sites %d [%s]" i (show_sites sites)
  | Install (keep, bits) ->
    Printf.sprintf "install%s toggling [%s]"
      (match keep with None -> "" | Some (m, r) -> Printf.sprintf " keep mod %d <> %d" m r)
      (show_bits bits)
  | Merge bits -> Printf.sprintf "merge [%s]" (show_bits bits)
  | Copy -> "copy"

let gen_op =
  let open QCheck.Gen in
  let item = int_bound (model_items - 1) and site = int_bound (model_sites - 1) in
  let sites = list_size (int_bound 8) site and bits = list_size (int_bound 30) (pair item site) in
  frequency
    [
      (4, map2 (fun i s -> Set (i, s)) item site);
      (3, map2 (fun i s -> Clear (i, s)) item site);
      (4, map2 (fun i down -> Commit (i, down)) item sites);
      (3, map3 (fun i s up -> Update_for (i, s, up)) item site bool);
      (2, map2 (fun i sites -> Clear_sites (i, sites)) item sites);
      ( 1,
        map2
          (fun keep bits -> Install (keep, bits))
          (opt (int_range 2 7 >>= fun m -> map (fun r -> (m, r)) (int_bound (m - 1))))
          bits );
      (1, map (fun bits -> Merge bits) bits);
      (1, return Copy);
    ]

(* Initial contents: two bits per item, rows inserted from the highest
   item down. *)
let initial_table () =
  let t = Faillock.create ~num_items:model_items ~num_sites:model_sites in
  let model = Array.make_matrix model_items model_sites false in
  for item = model_items - 1 downto 0 do
    List.iter
      (fun site ->
        ignore (Faillock.set t ~item ~site);
        model.(item).(site) <- true)
      [ item mod model_sites; item * 7 mod model_sites ]
  done;
  (t, model)

let model_sites_of model item = List.filter (fun s -> model.(item).(s)) (List.init model_sites Fun.id)
let model_items_of model site = List.filter (fun i -> model.(i).(site)) (List.init model_items Fun.id)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* Apply one op to the table and the model; false if a return value or
   reported transition disagrees with the model. *)
let apply_op t model = function
  | Set (item, site) ->
    let expect = not model.(item).(site) in
    model.(item).(site) <- true;
    Faillock.set !t ~item ~site = expect
  | Clear (item, site) ->
    let expect = model.(item).(site) in
    model.(item).(site) <- false;
    Faillock.clear !t ~item ~site = expect
  | Commit (item, down) ->
    let site_up s = not (List.mem s down) in
    let set = ref 0 and cleared = ref 0 and want_set = ref 0 and want_cleared = ref 0 in
    for s = 0 to model_sites - 1 do
      if site_up s then (if model.(item).(s) then incr want_cleared)
      else if not model.(item).(s) then incr want_set;
      model.(item).(s) <- not (site_up s)
    done;
    Faillock.commit_update !t ~item ~site_up ~set ~cleared;
    !set = !want_set && !cleared = !want_cleared
  | Update_for (item, site, up) ->
    let set = ref 0 and cleared = ref 0 in
    let was = model.(item).(site) in
    model.(item).(site) <- not up;
    Faillock.update_for !t ~item ~site ~up ~set ~cleared;
    !set = Bool.to_int ((not up) && not was) && !cleared = Bool.to_int (up && was)
  | Clear_sites (item, sites) ->
    let want =
      List.fold_left
        (fun n s ->
          let was = model.(item).(s) in
          model.(item).(s) <- false;
          if was then n + 1 else n)
        0 sites
    in
    Faillock.clear_sites !t ~item ~sites = want
  | Install (keep, toggles) ->
    let from = Faillock.copy !t and target = Array.map Array.copy model in
    List.iter
      (fun (item, site) ->
        let now = not target.(item).(site) in
        target.(item).(site) <- now;
        ignore ((if now then Faillock.set else Faillock.clear) from ~item ~site))
      toggles;
    let keep = Option.map (fun (m, r) item -> item mod m <> r) keep in
    let seen = ref [] in
    Faillock.set_hook !t (Some (fun ~item ~site ~locked -> seen := (item, site, locked) :: !seen));
    Faillock.install ?keep !t ~from;
    Faillock.set_hook !t None;
    let want = ref [] in
    for item = model_items - 1 downto 0 do
      let kept = match keep with None -> true | Some f -> f item in
      for site = model_sites - 1 downto 0 do
        let after = kept && target.(item).(site) in
        if after <> model.(item).(site) then want := (item, site, after) :: !want;
        model.(item).(site) <- after
      done
    done;
    let seen = List.rev !seen in
    strictly_increasing (List.map (fun (i, s, _) -> (i, s)) seen) && seen = !want
  | Merge bits ->
    let from = Faillock.create ~num_items:model_items ~num_sites:model_sites in
    List.iter
      (fun (item, site) ->
        ignore (Faillock.set from ~item ~site);
        model.(item).(site) <- true)
      bits;
    Faillock.merge !t ~from;
    true
  | Copy ->
    let c = Faillock.copy !t in
    let same = Faillock.equal c !t && Faillock.equal !t c in
    t := c;
    same

let agrees_with_model t model =
  let ok = ref true in
  let check b = if not b then ok := false in
  let total = ref 0 in
  for item = 0 to model_items - 1 do
    let sites = model_sites_of model item in
    total := !total + List.length sites;
    check (Faillock.locked_sites t ~item = sites);
    check (Faillock.any_locked t ~item = (sites <> []));
    for site = 0 to model_sites - 1 do
      check (Faillock.is_locked t ~item ~site = model.(item).(site))
    done
  done;
  check (Faillock.total_locked t = !total);
  for site = 0 to model_sites - 1 do
    let items = model_items_of model site in
    let listed = Faillock.locked_items_for t ~site in
    let iterated = ref [] in
    Faillock.iter_locked_items_for t ~site (fun item -> iterated := item :: !iterated);
    check (strictly_increasing listed && listed = items);
    check (List.rev !iterated = items);
    check (Faillock.count_for t ~site = List.length items)
  done;
  (* A table rebuilt in ascending item order has different bucket chains
     but must compare equal. *)
  let rebuilt = Faillock.create ~num_items:model_items ~num_sites:model_sites in
  Array.iteri
    (fun item row -> Array.iteri (fun site b -> if b then ignore (Faillock.set rebuilt ~item ~site)) row)
    model;
  check (Faillock.equal t rebuilt && Faillock.equal rebuilt t);
  !ok

let prop_model_large_table =
  QCheck.Test.make ~name:"model: 2000x64 table, traversals in item order" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let t0, model = initial_table () in
      let t = ref t0 in
      List.for_all (apply_op t model) ops && agrees_with_model !t model)

let suite =
  [
    Alcotest.test_case "initial table" `Quick test_initial;
    Alcotest.test_case "iteration helpers" `Quick test_iteration_helpers;
    Alcotest.test_case "set/clear transitions" `Quick test_set_clear_transitions;
    Alcotest.test_case "commit_update semantics" `Quick test_commit_update;
    Alcotest.test_case "locked items and counts" `Quick test_locked_items_and_counts;
    Alcotest.test_case "clear_sites" `Quick test_clear_sites;
    Alcotest.test_case "copy/install/merge" `Quick test_copy_install_merge;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
    QCheck_alcotest.to_alcotest prop_commit_update_postcondition;
    QCheck_alcotest.to_alcotest prop_model_large_table;
  ]
