type t = {
  max_threads : int;
  buffer_size : int;
  ack_budget : int;
  suspect_phases : int;
  takeover_steps : int;
  overflow_after : int;
}

let default =
  {
    max_threads = 64;
    buffer_size = 64;
    ack_budget = 5_000_000;
    suspect_phases = 3;
    takeover_steps = 1_000_000;
    overflow_after = 64;
  }

let validate t =
  if t.max_threads < 1 then invalid_arg "Threadscan config: max_threads < 1";
  if t.buffer_size < 2 then invalid_arg "Threadscan config: buffer_size < 2";
  if t.suspect_phases < 1 then invalid_arg "Threadscan config: suspect_phases < 1"
