type group = { workload : string; seed : int; txns : int }

(* Short runs of every workload at the recorded default and held-out seeds.
   [txns] is per tenant for multi200. *)
let groups =
  List.concat_map
    (fun seed ->
      [
        { workload = "full64"; seed; txns = 400 };
        { workload = "partial256"; seed; txns = 200 };
        { workload = "multi200"; seed; txns = 8 };
        { workload = "serve16"; seed; txns = 640 };
      ])
    [ Catalog.default_seed; Catalog.held_out_seed ]

(* Allocation counts differ between build profiles (cross-module inlining),
   so they are pinned per profile. *)
let key name = if name = "alloc_words" then name ^ "." ^ Build_profile.name else name

let run g ~traced =
  match Runner.outcome ~workload:g.workload ~seed:g.seed ~budget:(Outcome.Txns g.txns) ~traced with
  | Ok o -> o
  | Error e -> failwith e

let row g name value = Printf.sprintf "%s %d %d %s %d" g.workload g.seed g.txns name value

let rows () =
  List.concat_map
    (fun g -> List.map (fun (name, v) -> row g (key name) v) (run g ~traced:false).Outcome.counters)
    groups

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" || line.[0] = '#' -> go acc
        | line ->
          Scanf.sscanf line "%s %d %d %s %d" (fun workload seed txns name value ->
              go (((workload, seed, txns, name), value) :: acc))
      in
      go [])

let check path =
  let pinned = read path in
  List.concat_map
    (fun g ->
      let untraced = run g ~traced:false and traced = run g ~traced:true in
      let where = Printf.sprintf "%s seed %d (%d txns)" g.workload g.seed g.txns in
      let failed =
        List.map (fun e -> where ^ ": " ^ e) (untraced.Outcome.errors @ traced.Outcome.errors)
      in
      let against_pins =
        List.filter_map
          (fun (name, v) ->
            match List.assoc_opt (g.workload, g.seed, g.txns, key name) pinned with
            | Some p when p = v -> None
            | Some p -> Some (Printf.sprintf "%s: %s is %d, pinned %d" where (key name) v p)
            | None -> Some (Printf.sprintf "%s: no pin for %s (now %d)" where (key name) v))
          untraced.Outcome.counters
      in
      let traced_differs =
        List.filter_map
          (fun (name, v) ->
            match List.assoc_opt name untraced.Outcome.counters with
            | Some u when u = v -> None
            | _ -> Some (Printf.sprintf "%s: traced %s is %d, untraced differs" where name v))
          traced.Outcome.counters
      in
      failed @ against_pins @ traced_differs)
    groups
