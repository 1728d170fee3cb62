(** Post-run SMR invariants (the oracle layer of the checker).

    Checked once the run has quiesced (all workers joined, every key
    removed, [flush] driven to completion):

    - [freed <= retired] — nothing is freed that was never retired;
    - [outstanding = 0] — every unreachable retired node was eventually
      freed (the set is empty, so all retired nodes are unreachable);
    - the set really is empty;
    - allocator [live_blocks] is back to the post-construction baseline —
      no leak, no over-free.

    "Never free a reachable node" is not checked here: it is enforced
    {e continuously} by the strict heap + sanitizer, which turn any access
    to a prematurely freed node into a fault the {!Sanitize} layer
    attributes. *)

val check :
  ?max_leak:int ->
  smr:Ts_smr.Smr.t ->
  alloc:Ts_umem.Alloc.t ->
  baseline_live:int ->
  final_list:(int * int) list ->
  unit ->
  Report.violation list
(** Empty list = all invariants hold.  Outstanding is
    {!Ts_smr.Smr.outstanding}.  [max_leak] (default 0) relaxes the
    [outstanding] and live-heap checks by that many nodes: a thread crashed
    mid-[retire] takes its in-flight pointer with it, so runs that kill [k]
    threads budget a bounded leak of [k] — any excess (or any use-after-free,
    which the sanitizer catches separately) is still a violation. *)
