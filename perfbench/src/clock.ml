external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let peak_rss_mb () =
  (* VmHWM is the resident-set high-water mark, in kB. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
