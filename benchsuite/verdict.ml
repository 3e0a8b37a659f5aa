(* The suite-compare rule for one workload x end-to-end metric, given the
   repetition values of an old and a new set and the metric's bound from
   BENCHMARK.json:

   - unresolved: either set's quartile spread exceeds the bound and the runs
     do not all separate (every new run better, or every new run worse,
     than every old run);
   - worse: the new median is worse than the old one by more than the bound;
   - better: the new median is better by more than both sets' spreads and
     every new run beats every old run;
   - same: anything else. *)

type direction = Lower | Higher
type t = Same | Better | Worse | Unresolved

let to_string = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let direction_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* Relative change of [b] against [a], signed so that positive is worse. *)
let worsening dir a b =
  let d =
    if a = 0.0 then if b = a then 0.0 else Float.copy_sign infinity (b -. a)
    else (b -. a) /. Float.abs a
  in
  match dir with Lower -> d | Higher -> -.d

let judge dir ~bound ~old_ ~new_ =
  let so = Stats.summarize old_ and sn = Stats.summarize new_ in
  let spread = Float.max (Stats.spread so) (Stats.spread sn) in
  let beats x y = worsening dir y x < 0.0 in
  let all_better = beats sn.Stats.max so.Stats.min && beats sn.Stats.min so.Stats.max in
  let all_worse = beats so.Stats.max sn.Stats.min && beats so.Stats.min sn.Stats.max in
  let d = worsening dir so.Stats.median sn.Stats.median in
  if spread > bound && not (all_better || all_worse) then Unresolved
  else if d > bound then Worse
  else if -.d > spread && all_better then Better
  else Same
