module Runtime = Ts_rt

type t = { min_delay : int; max_delay : int; mutable delay : int }

let create ?(min_delay = 32) ?(max_delay = 4096) () =
  { min_delay; max_delay; delay = min_delay }

let once t =
  Runtime.advance t.delay;
  Runtime.yield ();
  (* an int compare: [Stdlib.min] is a polymorphic call, every round *)
  let d = 2 * t.delay in
  t.delay <- (if d < t.max_delay then d else t.max_delay)

let reset t = t.delay <- t.min_delay
