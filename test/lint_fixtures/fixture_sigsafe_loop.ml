(* Seeded [sigsafe] violations of the loop rule: the handler reaches a
   shared counter bumped once per scanned word, in both loop forms
   (lines 11 and 15).  The local count added once after the loop
   (line 24) is the fix and stays silent.  Parse-only — linted, never
   compiled. *)

module Runtime = Ts_rt

let count_per_word t base len =
  for a = base to base + len - 1 do
    t.stats.words <- t.stats.words + Runtime.read a
  done;
  let i = ref 0 in
  while !i < len do
    t.hits <- 1 + t.hits;
    incr i
  done

let count_per_range t base len =
  let n = ref 0 in
  for a = base to base + len - 1 do
    n := !n + Runtime.read a
  done;
  t.hits <- t.hits + !n

let install t =
  Runtime.set_signal_handler (fun () ->
      count_per_word t 0 8;
      count_per_range t 0 8)
