module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr

(* Post-run SMR invariants.  All reads are control-plane (the scheme's
   counters and allocator metadata); the run is over, nothing races.
   [max_leak] is the crash-leak budget: a thread killed mid-[retire] takes
   its in-flight pointer with it (the reference exists only in its dead
   hands), so a run with [k] crashed threads may legitimately end with up
   to [k] nodes never freed — a bounded leak, never a use-after-free. *)
let check ?(max_leak = 0) ~(smr : Smr.t) ~alloc ~baseline_live ~final_list () =
  let v = ref [] in
  let add what detail = v := Report.Oracle { what; detail } :: !v in
  let retired = Smr.retired smr and freed = Smr.freed smr in
  if freed > retired then add "freed exceeds retired" (Fmt.str "retired=%d freed=%d" retired freed);
  let outstanding = retired - freed in
  if outstanding > max_leak then
    add "retired nodes never freed"
      (Fmt.str "outstanding=%d after flush (crash-leak budget %d)" outstanding max_leak);
  if final_list <> [] then
    add "set not empty after removing every key"
      (Fmt.str "%d keys left" (List.length final_list));
  let live = Alloc.live_blocks alloc in
  if live - baseline_live > max_leak || live < baseline_live then
    add "heap not back to baseline"
      (Fmt.str "live=%d baseline=%d (crash-leak budget %d)" live baseline_live max_leak);
  List.rev !v
