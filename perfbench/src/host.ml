let nominal_ms = 1.0

type t = { mutable ns : int; mutable runs : int; mutable words : float }

let create () = { ns = 0; runs = 0; words = 0.0 }

(* Sized once, so that the kernel never resizes it. *)
let table = Hashtbl.create 2048

(* About 200k minor words, less than the default minor heap: after the
   minor collection in [sample], the kernel runs no collection of its
   own.  So its time depends on the host much more than on the
   program's heap. *)
let kernel () =
  Hashtbl.clear table;
  for i = 1 to 15_000 do
    Hashtbl.replace table (i land 1023) (List.init 3 (fun j -> i + j))
  done

let sample t =
  (* A minor collection only: a major slice here would evict the caches
     by an amount that depends on the program's heap. *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  kernel ();
  let t1 = Clock.now_ns () in
  t.words <- t.words +. (Gc.minor_words () -. w0);
  t.ns <- t.ns + (t1 - t0);
  t.runs <- t.runs + 1;
  t1 - t0

let words t = t.words

let mean_ms t = float_of_int t.ns /. float_of_int (max 1 t.runs) /. 1e6

(* How much slower than nominal the host ran: 1 with no sample. *)
let slow t = if t.runs = 0 then 1.0 else mean_ms t /. nominal_ms

let scaled = [ "txn_per_s"; "events_per_s"; "submit_p50_us"; "setup_s" ]

let calibrate ~setup t values =
  let scale (name, v) =
    match name with
    | "txn_per_s" | "events_per_s" -> (name, v *. slow t)
    | "submit_p50_us" -> (name, v /. slow t)
    | "setup_s" -> (name, v /. slow setup)
    | _ -> (name, v)
  in
  let describe what h =
    if h.runs = 0 then []
    else
      [
        Printf.sprintf "host (%s): reference kernel %.4f ms (mean of %d runs), nominal %.1f ms, \
                        scale %.4f"
          what (mean_ms h) h.runs nominal_ms (slow h);
      ]
  in
  let raw =
    if t.runs = 0 && setup.runs = 0 then []
    else
      List.filter_map
        (fun (name, v) ->
          if List.mem name scaled then Some (Printf.sprintf "raw %s %.6f" name v) else None)
        values
  in
  (List.map scale values, describe "set-up" setup @ describe "loop" t @ raw)
