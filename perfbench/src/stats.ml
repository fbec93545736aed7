module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let clear t = t.len <- 0

  let to_sorted_array t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

type percentile = { value : float; beyond : int; samples : int }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then { value = Float.nan; beyond = 0; samples = 0 }
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    { value = sorted.(rank - 1); beyond = n - rank; samples = n }

let median sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method="exclusive"): cut point i sits
   at position i*(n+1)/4 (1-based), clamped to [1, n-1], interpolated
   linearly. *)
let quartiles sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (sorted.(0), sorted.(0), sorted.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta)) +. (sorted.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let spread sorted =
  let q1, q2, q3 = quartiles sorted in
  if q2 = 0.0 then Float.nan else (q3 -. q1) /. Float.abs q2

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let describe name sorted =
  if Array.length sorted = 0 then name ^ ": no windows"
  else
    let q1, q2, q3 = quartiles sorted in
    Printf.sprintf "%s over %d windows: q1 %.6g, median %.6g, q3 %.6g (spread %.3f)" name
      (Array.length sorted) q1 q2 q3 (spread sorted)
