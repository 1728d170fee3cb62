(* Why memory reclamation exists — Figure 1 of the paper, executed.
   Run with: dune exec examples/uaf_detection.exe

   Thread T1 deletes node B from a list while thread T2 is still traversing
   it.  We run the same race under three policies:

   - leaky:       never free — safe but the memory is gone for good
   - direct-free: free immediately on retire — T2 reads freed memory, and
                  the unmanaged heap catches the use-after-free
   - threadscan:  free only after the scan proves nobody holds B           *)

module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr

(* The race from Figure 1, against an arbitrary reclamation scheme.  [cell]
   plays the role of A.next: the shared reference leading to node B. *)
let figure_one_race (smr : Smr.t) =
  let cell = Runtime.alloc_region 1 in
  let t2_has_b = Runtime.alloc_region 1 in
  let t1_freed = Runtime.alloc_region 1 in
  (* B: a node holding the value 42 *)
  let b = Ptr.of_addr (Runtime.malloc 3) in
  Runtime.write (Ptr.addr b) 42;
  Runtime.write cell b;
  let t2 =
    Runtime.spawn (fun () ->
        smr.Smr.thread_init ();
        Frame.with_frame 1 (fun fr ->
            (* T2: B = A.next — a private reference, invisible to T1 *)
            Frame.set fr 0 (Runtime.read cell);
            Runtime.write t2_has_b 1;
            (* wait until T1 has deleted (and possibly freed) B *)
            while Runtime.read t1_freed = 0 do
              Runtime.yield ()
            done;
            (* T2: val = B.value — the dangerous dereference *)
            let v = Runtime.read (Ptr.addr (Frame.get fr 0)) in
            Fmt.pr "  T2 read B.value = %d@." v);
        smr.Smr.thread_exit ())
  in
  smr.Smr.thread_init ();
  while Runtime.read t2_has_b = 0 do
    Runtime.yield ()
  done;
  (* T1: disconnect B (A.next = C), then free it through the scheme *)
  Runtime.write cell Ptr.null;
  smr.Smr.retire b;
  (* push enough garbage through to force reclamation activity *)
  for _ = 1 to 40 do
    smr.Smr.retire (Ptr.of_addr (Runtime.malloc 3))
  done;
  Runtime.write t1_freed 1;
  Runtime.join t2;
  smr.Smr.thread_exit ();
  smr.Smr.flush ()

let run_policy name make =
  Fmt.pr "@.--- %s ---@." name;
  let rt = Runtime.create Runtime.default_config in
  ignore (Runtime.add_thread rt (fun () -> figure_one_race (make ())));
  match Runtime.start rt with
  | _ ->
      let live = Alloc.live_blocks (Runtime.alloc rt) in
      Fmt.pr "  run completed safely; blocks still allocated (leaked): %d@." live
  | exception Runtime.Thread_failure (tid, Mem.Fault (kind, addr)) ->
      Fmt.pr "  thread %d crashed: %s at address %d — caught by the unmanaged heap@." tid
        (Mem.fault_to_string kind) addr

let () =
  Fmt.pr "Figure 1: T1 deletes node B while T2 still holds a private reference.@.";
  run_policy "leaky (never free)" Ts_reclaim.Leaky.create;
  run_policy "direct-free (free on retire — UNSAFE)" Ts_reclaim.Direct_free.create;
  run_policy "threadscan (scan before free)" (fun () ->
      Threadscan.smr
        (Threadscan.create
           ~config:{ Threadscan.Config.default with max_threads = 8; buffer_size = 8 }
           ()));
  Fmt.pr
    "@.threadscan freed everything it could while T2's reference kept B alive exactly as long \
     as needed.@."
