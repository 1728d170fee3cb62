(* What one workload run reports. *)

type t = {
  attempted : int;  (** operations, schedules or runs attempted *)
  failed : int;  (** of those, the ones an oracle rejected *)
  failure : string option;  (** what failed, with enough to reproduce it *)
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;  (** sample counts and other human-readable context *)
}

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
