type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  self_ns : int;
}

let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec sweep acc cur_a cur_b = function
    | [] -> acc + (cur_b - cur_a)
    | (a, b) :: rest ->
      if a > cur_b then sweep (acc + (cur_b - cur_a)) a b rest
      else sweep acc cur_a (max cur_b b) rest
  in
  match sorted with [] -> 0 | (a, b) :: rest -> sweep 0 a b rest

let self_time ~start ~stop children = stop - start - covered ~start ~stop children

type total = { count : int; total_ns : int; self_ns : int }

type acc = { a_name : string; mutable a_count : int; mutable a_total : int; mutable a_self : int }

let keep = 20_000

type t = {
  mutable accs : acc array;  (* looked up by name, physical equality first *)
  mutable n_accs : int;
  mutable raw : span list;  (* most recent first, at most [keep] *)
  mutable raw_n : int;
  mutable next_id : int;
  mutable root : (int * string * int) option;  (* id, name, start *)
  mutable root_kids : (int * int) list;  (* the open root's closed calls *)
  mutable roots_ns : int;
  mutable self_sum : int;
  (* The call in progress and the events closed under it so far. *)
  mutable call_id : int;
  mutable call_in_root : bool;
  mutable call_kids : (int * int) list;
  mutable last_stop : int;
}

let create () =
  {
    accs = [||];
    n_accs = 0;
    raw = [];
    raw_n = 0;
    next_id = 0;
    root = None;
    root_kids = [];
    roots_ns = 0;
    self_sum = 0;
    call_id = -1;
    call_in_root = false;
    call_kids = [];
    last_stop = 0;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Span names are few and mostly literal constants, so a linear scan by
   physical equality finds them without hashing on the per-event path. *)
let acc_for t name =
  let rec physical i =
    if i = t.n_accs then structural 0
    else if t.accs.(i).a_name == name then t.accs.(i)
    else physical (i + 1)
  and structural i =
    if i = t.n_accs then begin
      let a = { a_name = name; a_count = 0; a_total = 0; a_self = 0 } in
      if t.n_accs = Array.length t.accs then begin
        let bigger = Array.make (max 16 (2 * t.n_accs)) a in
        Array.blit t.accs 0 bigger 0 t.n_accs;
        t.accs <- bigger
      end;
      t.accs.(t.n_accs) <- a;
      t.n_accs <- t.n_accs + 1;
      a
    end
    else if String.equal t.accs.(i).a_name name then t.accs.(i)
    else structural (i + 1)
  in
  physical 0

(* Every span closes here, with its self time from {!self_time} over the
   children it had.  [self_sum] covers only the tree under roots, so that
   it can be checked against the traced wall time. *)
let close t ~in_root ~id ~parent name ~start ~stop children =
  let self = self_time ~start ~stop children in
  let a = acc_for t name in
  a.a_count <- a.a_count + 1;
  a.a_total <- a.a_total + (stop - start);
  a.a_self <- a.a_self + self;
  if in_root then t.self_sum <- t.self_sum + self;
  if t.raw_n < keep then begin
    t.raw <- { id; parent; name; start_ns = start; stop_ns = stop; self_ns = self } :: t.raw;
    t.raw_n <- t.raw_n + 1
  end

let current_root t = match t.root with Some (id, _, _) -> id | None -> -1

let open_root t name =
  if t.root <> None then invalid_arg "Spans.open_root: a root is already open";
  t.root_kids <- [];
  t.root <- Some (fresh_id t, name, Clock.now_ns ())

let close_root t =
  match t.root with
  | None -> invalid_arg "Spans.close_root: no root open"
  | Some (id, name, start) ->
    let stop = Clock.now_ns () in
    close t ~in_root:true ~id ~parent:(-1) name ~start ~stop t.root_kids;
    t.roots_ns <- t.roots_ns + (stop - start);
    t.root_kids <- [];
    t.root <- None

let event t kind ~stop =
  if t.call_id >= 0 then begin
    let start = t.last_stop in
    close t ~in_root:t.call_in_root ~id:(fresh_id t) ~parent:t.call_id kind ~start ~stop [];
    t.call_kids <- (start, stop) :: t.call_kids;
    t.last_stop <- stop
  end

let call t name f =
  if t.call_id >= 0 then invalid_arg "Spans.call: calls do not nest";
  let id = fresh_id t in
  let root = current_root t in
  let start = Clock.now_ns () in
  t.call_id <- id;
  t.call_in_root <- root >= 0;
  t.call_kids <- [];
  t.last_stop <- start;
  let finish () =
    let stop = Clock.now_ns () in
    close t ~in_root:t.call_in_root ~id ~parent:root name ~start ~stop t.call_kids;
    if t.call_in_root then t.root_kids <- (start, stop) :: t.root_kids;
    t.call_kids <- [];
    t.call_id <- -1
  in
  Fun.protect ~finally:finish f

let add_span t name ~start ~stop =
  close t ~in_root:false ~id:(fresh_id t) ~parent:(-1) name ~start ~stop []

let total_of a = { count = a.a_count; total_ns = a.a_total; self_ns = a.a_self }

let totals t =
  List.init t.n_accs (fun i -> (t.accs.(i).a_name, total_of t.accs.(i)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let root_ns t = t.roots_ns
let self_sum_ns t = t.self_sum

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let origin = List.fold_left (fun m s -> min m s.start_ns) max_int t.raw in
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
             \"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}\n"
            (if i = 0 then "" else ",")
            (String.escaped s.name)
            (float_of_int (s.start_ns - origin) /. 1e3)
            (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
            s.id s.parent
            (float_of_int s.self_ns /. 1e3))
        (List.rev t.raw);
      output_string oc "]}\n")
