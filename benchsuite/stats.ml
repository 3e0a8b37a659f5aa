(* Order statistics shared by single runs, [suite] and [suite-compare].
   Two conventions meet here on purpose:

   - latency samples use the nearest-rank percentile of
     Congest.Histogram.percentile, so a p99 here means what it means in
     every other table of the repo;
   - repetition spreads use Python's statistics.quantiles(xs, n=4) with its
     default 'exclusive' method, so a spread printed here equals one
     computed from the same values with that common tool. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank n p = min (n - 1) (n * p / 100)

(* [a] sorted ascending and non-empty. *)
let percentile a p = a.(rank (Array.length a) p)

(* How many of [n] samples lie strictly above the nearest-rank [p]-th
   percentile. A tail percentile is only reported when at least ten do. *)
let beyond n p = n - 1 - rank n p
let tail_supported n p = beyond n p >= 10

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(xs, n=4), method='exclusive'; a single value is its
   own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

let summarize xs =
  let a = sorted xs in
  let q1, _, q3 = quartiles a in
  {
    n = Array.length a;
    median = median a;
    q1;
    q3;
    min = a.(0);
    max = a.(Array.length a - 1);
  }

(* Quartile distance as a share of the median: the run-to-run spread. *)
let spread s =
  if s.median = 0.0 then if s.q3 = s.q1 then 0.0 else infinity
  else (s.q3 -. s.q1) /. Float.abs s.median
