type t = int

let zero = 0
let of_ms ms = ms * 1000
let of_ms_f ms = int_of_float (Float.round (ms *. 1000.0))
let to_us t = t
let to_ms t = float_of_int t /. 1000.0
let add = ( + )
let sub = ( - )
let compare = Int.compare
let pp ppf t = Format.fprintf ppf "%.2f ms" (to_ms t)
