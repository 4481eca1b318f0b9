(* Order statistics shared by the run and compare modes. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* [at a p] interpolates the sorted sample [a] at rank p * (n + 1), the
   "exclusive" method of Python's statistics.quantiles, clamped to the
   sample's range.  [nan] on an empty sample. *)
let at a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float pos)) in
    let delta = Float.min 1. (Float.max 0. (pos -. float_of_int j)) in
    a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))

let quantile xs p = at (sorted xs) p
let median xs = quantile xs 0.5
