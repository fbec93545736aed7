(* A minimal blocking HTTP/1.1 client for the serve16 workload: one request
   per connection, read to end of stream. *)

type response = { status : int; body : string }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

let parse raw =
  match String.index_opt raw ' ' with
  | None -> Error "no status line"
  | Some sp -> (
    match int_of_string_opt (String.sub raw (sp + 1) (min 3 (String.length raw - sp - 1))) with
    | None -> Error "bad status code"
    | Some status ->
      let rec find_body i =
        if i + 4 > String.length raw then None
        else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
        else find_body (i + 1)
      in
      (match find_body 0 with
      | None -> Error "no header terminator"
      | Some b -> Ok { status; body = String.sub raw b (String.length raw - b) }))

let request ~port ~meth path =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          write_all fd
            (Printf.sprintf
               "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
               meth path);
          parse (read_all fd)
        with Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e))

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false

(* Number of sample lines in a Prometheus text exposition, or the first
   malformed line. *)
let prometheus_samples body =
  let sample line =
    match String.rindex_opt line ' ' with
    | None -> false
    | Some sp ->
      let series = String.sub line 0 sp
      and value = String.sub line (sp + 1) (String.length line - sp - 1) in
      let value_ok =
        match value with
        | "+Inf" | "-Inf" | "NaN" -> true
        | v -> Option.is_some (float_of_string_opt v)
      in
      let name_end =
        match String.index_opt series '{' with Some i -> i | None -> String.length series
      in
      let labels_ok =
        name_end = String.length series || series.[String.length series - 1] = '}'
      in
      value_ok && name_end > 0
      && String.for_all is_name_char (String.sub series 0 name_end)
      && labels_ok
  in
  let rec go n = function
    | [] -> Ok n
    | line :: rest ->
      if line = "" || line.[0] = '#' then go n rest
      else if sample line then go (n + 1) rest
      else Error ("malformed line: " ^ line)
  in
  go 0 (String.split_on_char '\n' body)
