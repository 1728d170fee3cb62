(* Comparing two sets of runs of one (workload, metric) pair, by the rule
   the benchmark's bounds are written for: a change is worse when its
   median is worse than the baseline's by more than the bound, and
   unresolved when the runs spread wider than the bound — unless every
   run of one side reads better than every run of the other. *)

(* The three quartile cut points, as Python's
   [statistics.quantiles(values, n=4)] (its default "exclusive" method)
   computes them. *)
let quartiles values =
  let d = Array.of_list (List.sort compare values) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Verdict.quartiles: no values";
  if ld = 1 then [| d.(0); d.(0); d.(0) |]
  else
    let m = ld + 1 in
    Array.init 3 (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0)

(* Inter-quartile distance as a share of the median. *)
let spread values =
  let q = quartiles values in
  if q.(1) = 0.0 then 0.0 else (q.(2) -. q.(0)) /. Float.abs q.(1)

type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type judged = {
  verdict : t;
  median_a : float;
  median_b : float;
  change : float;  (** (median_b - median_a) / median_a *)
  spread_a : float;
  spread_b : float;
}

let judge ~(better : Metrics.better) ~bound a b =
  let ma = Outcome.median a and mb = Outcome.median b in
  let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
  (* positive = b is worse *)
  let worse_by = match better with Metrics.Lower -> change | Metrics.Higher -> -.change in
  let beats x y = match better with Metrics.Lower -> x < y | Metrics.Higher -> x > y in
  let all_b_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  let all_b_worse = List.for_all (fun y -> List.for_all (fun x -> beats x y) a) b in
  let sa = spread a and sb = spread b in
  let verdict =
    if all_b_better && -.worse_by > sa then Better
    else if all_b_worse && worse_by > bound then Worse
    else if Float.max sa sb > bound then Unresolved
    else if worse_by > bound then Worse
    else begin
      (* a gain: the change wins nine tenths of all pairs and moves the
         median by more than the baseline's own spread *)
      let pairs = List.length a * List.length b in
      let wins =
        List.fold_left (fun acc y -> acc + List.length (List.filter (fun x -> beats y x) a)) 0 b
      in
      if pairs > 0 && float_of_int wins >= 0.9 *. float_of_int pairs && -.worse_by > sa then Better
      else Unchanged
    end
  in
  { verdict; median_a = ma; median_b = mb; change; spread_a = sa; spread_b = sb }
