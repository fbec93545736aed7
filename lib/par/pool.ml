let default = Atomic.make 1

let set_default_domains n =
  if n < 1 then invalid_arg "Par.Pool.set_default_domains: domain count must be at least 1";
  Atomic.set default n

let default_domains () = Atomic.get default

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?domains f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Par.Pool.map: domain count must be at least 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when domains = 1 -> List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let poisoned = Atomic.make false in
    (* Workers race on an atomic cursor; each element is claimed exactly
       once and its result lands at its input index, so assembly order
       (and the leftmost-failure choice below) is independent of
       scheduling.  Once any element fails, workers stop claiming new
       work: a poisoned batch does not run its whole tail before the
       join re-raises (elements already in flight still finish). *)
    let rec worker () =
      if not (Atomic.get poisoned) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f items.(i) with
          | y -> results.(i) <- Done y
          | exception e ->
            results.(i) <- Failed (e, Printexc.get_raw_backtrace ());
            Atomic.set poisoned true);
          worker ()
        end
      end
    in
    let spawned = Array.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.iter
      (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
      results;
    List.init n (fun i ->
        match results.(i) with Done y -> y | Pending | Failed _ -> assert false)
