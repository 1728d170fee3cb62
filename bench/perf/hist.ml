(* Log-linear histogram: values below 64 get a bucket each, and every
   octave [2^e, 2^(e+1)) above that is cut into 64 equal buckets, so a
   bucket is never wider than 1/64 of the values it holds.  [add] does
   no allocation, which lets worker loops record every operation. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let buckets = sub + ((62 - sub_bits + 1) * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make buckets 0; n = 0 }

(* Index of the highest set bit of [v > 0]. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin
    v := !v lsr 32;
    r := 32
  end;
  if !v lsr 16 <> 0 then begin
    v := !v lsr 16;
    r := !r + 16
  end;
  if !v lsr 8 <> 0 then begin
    v := !v lsr 8;
    r := !r + 8
  end;
  if !v lsr 4 <> 0 then begin
    v := !v lsr 4;
    r := !r + 4
  end;
  if !v lsr 2 <> 0 then begin
    v := !v lsr 2;
    r := !r + 2
  end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < sub then max 0 v
  else
    let e = msb v in
    sub + ((e - sub_bits) * sub) + ((v lsr (e - sub_bits)) - sub)

(* [lower, lower + width) is the range bucket [i] holds. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let e = ((i - sub) / sub) + sub_bits in
    let width = 1 lsl (e - sub_bits) in
    ((sub + ((i - sub) mod sub)) * width, width)

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let count t = t.n

let merge hs =
  let dst = create () in
  List.iter
    (fun src ->
      Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
      dst.n <- dst.n + src.n)
    hs;
  dst

(* Nearest-rank percentile, reported as the middle of its bucket. *)
let percentile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let rank = min rank t.n in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    let lower, width = bounds !i in
    float_of_int lower +. (float_of_int (width - 1) /. 2.0)
  end

(* [percentile], but never above the highest percentile that still has
   ten samples beyond it (nor below the median): a tail read off fewer
   samples than that is one or two outliers, not a percentile. *)
let supported n q = Float.max 0.5 (Float.min q (1.0 -. (10.0 /. float_of_int (max 1 n))))
let tail_percentile t q = percentile t (supported t.n q)

(* [tail_percentile] read exactly off a sorted array of samples. *)
let tail_of_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (supported n q *. float_of_int n)) in
    a.(min n (max 1 rank) - 1)

let equal a b = a.n = b.n && a.counts = b.counts
