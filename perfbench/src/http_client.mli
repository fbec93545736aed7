(** A minimal blocking HTTP/1.1 client: one request per connection. *)

type response = { status : int; body : string }

val request : port:int -> meth:string -> string -> (response, string) result
(** [request ~port ~meth path] against 127.0.0.1, with an empty body. *)

val prometheus_samples : string -> (int, string) result
(** Sample lines in a Prometheus text exposition, or the first line that
    is neither a comment nor a well-formed [name{labels} value] sample. *)
