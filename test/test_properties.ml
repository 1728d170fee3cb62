(* The paper's Section 5 correctness properties, executed.

   Lemma 1  (safety): a node reclaimed by ThreadScan has already been
            retired — no access violation can follow.
   Lemma 2  (bounded interference): operations that do not call free keep
            their progress; ThreadScan adds at most a bounded number of
            steps per reclamation event.
   Lemma 3  (collect termination): TS-Collect finishes under a fair
            scheduler regardless of the progress of application code —
            even when a thread is stuck inside an operation forever.
            (Epoch-based reclamation provably blocks in that situation;
            we demonstrate both.)
   Lemma 4  (eventual reclamation): nodes not referenced from any stack or
            register at the start of a phase are retired by that phase.  *)

module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr
module Config = Threadscan.Config

let check = Alcotest.(check int)

let cfg = Runtime.default_config

let ts_smr ?(buffer_size = 8) ~max_threads () =
  Threadscan.smr (Threadscan.create ~config:{ Config.default with max_threads; buffer_size } ())

let alloc_node () = Ptr.of_addr (Runtime.malloc 3)

(* ------------------------------- Lemma 1 -------------------------------- *)

(* Strict memory turns any safety violation into a Thread_failure.  Run the
   shared-slot churn under many seeds and schedules; the absence of faults
   IS Lemma 1, because the heap checks every access. *)
let lemma1 =
  QCheck.Test.make ~name:"Lemma 1: reclaimed nodes are never accessible" ~count:20
    QCheck.(pair small_nat (int_range 1 4))
    (fun (seed, cores) ->
      let r = Runtime.create { cfg with seed; cores } in
      ignore
        (Runtime.add_thread r (fun () ->
             let smr = ts_smr ~buffer_size:4 ~max_threads:8 () in
             let slots = Runtime.alloc_region 4 in
             smr.Smr.thread_init ();
             let worker i () =
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   for _ = 1 to 50 do
                     let q = Runtime.read (slots + Runtime.rand_below 4) in
                     Frame.set fr 0 q;
                     if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q));
                     Frame.set fr 0 0;
                     let p = alloc_node () in
                     let old = Runtime.read (slots + i) in
                     Runtime.write (slots + i) p;
                     if not (Ptr.is_null old) then smr.Smr.retire old
                   done);
               smr.Smr.thread_exit ()
             in
             let ws = List.init 4 (fun i -> Runtime.spawn (worker i)) in
             List.iter Runtime.join ws;
             smr.Smr.thread_exit ();
             smr.Smr.flush ()));
      ignore (Runtime.start r);
      true)

(* Same churn under the model-checking scheduler: uniformly random
   interleavings reach schedules the cost-driven scheduler never produces.
   Safety must survive all of them. *)
let lemma1_random_walks =
  QCheck.Test.make ~name:"Lemma 1 under random-walk schedules" ~count:40 QCheck.small_nat
    (fun seed ->
      let r = Runtime.create { cfg with seed; sched = Runtime.Uniform } in
      ignore
        (Runtime.add_thread r (fun () ->
             let smr = ts_smr ~buffer_size:4 ~max_threads:8 () in
             let slots = Runtime.alloc_region 3 in
             smr.Smr.thread_init ();
             let worker i () =
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   for _ = 1 to 25 do
                     let q = Runtime.read (slots + Runtime.rand_below 3) in
                     Frame.set fr 0 q;
                     if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q));
                     Frame.set fr 0 0;
                     let p = alloc_node () in
                     let old = Runtime.read (slots + i) in
                     Runtime.write (slots + i) p;
                     if not (Ptr.is_null old) then smr.Smr.retire old
                   done);
               smr.Smr.thread_exit ()
             in
             let ws = List.init 3 (fun i -> Runtime.spawn (worker i)) in
             List.iter Runtime.join ws;
             smr.Smr.thread_exit ();
             smr.Smr.flush ()));
      ignore (Runtime.start r);
      true)

(* ------------------------------- Lemma 2 -------------------------------- *)

let test_lemma2_reader_keeps_progress () =
  (* A pure reader (never calls free) completes a workload of N lookups in
     bounded time whether or not heavy reclamation runs around it. *)
  let reader_elapsed ~with_reclaimer =
    let out = ref 0 in
    ignore
      (Runtime.run ~config:{ cfg with seed = 9 } (fun () ->
           let smr = ts_smr ~buffer_size:8 ~max_threads:8 () in
           smr.Smr.thread_init ();
           let cell = Runtime.alloc_region 1 in
           Runtime.write cell (alloc_node ());
           let reader =
             Runtime.spawn (fun () ->
                 smr.Smr.thread_init ();
                 let t0 = Runtime.now () in
                 Frame.with_frame 1 (fun fr ->
                     for _ = 1 to 300 do
                       let q = Runtime.read cell in
                       Frame.set fr 0 q;
                       if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q))
                     done);
                 out := Runtime.now () - t0;
                 smr.Smr.thread_exit ())
           in
           let reclaimers =
             if with_reclaimer then
               List.init 3 (fun _ ->
                   Runtime.spawn (fun () ->
                       smr.Smr.thread_init ();
                       for _ = 1 to 120 do
                         smr.Smr.retire (alloc_node ())
                       done;
                       smr.Smr.thread_exit ()))
             else []
           in
           Runtime.join reader;
           List.iter Runtime.join reclaimers;
           smr.Smr.thread_exit ();
           smr.Smr.flush ()));
    !out
  in
  let quiet = reader_elapsed ~with_reclaimer:false in
  let noisy = reader_elapsed ~with_reclaimer:true in
  Alcotest.(check bool)
    (Fmt.str "interference is bounded (quiet %d, noisy %d)" quiet noisy)
    true
    (noisy < 4 * quiet)

(* ------------------------------- Lemma 3 -------------------------------- *)

let test_lemma3_collect_independent_of_stuck_thread () =
  (* One thread spins forever inside "application code" (it will never reach
     any quiescent point).  ThreadScan's phases must still complete, because
     the signal handler runs regardless. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = ts_smr ~buffer_size:8 ~max_threads:8 () in
         let ts_phases_done = Runtime.alloc_region 1 in
         let stuck =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               (* stuck mid-"operation": pure busy loop, no protocol calls *)
               while Runtime.read ts_phases_done = 0 do
                 Runtime.advance 7
               done;
               smr.Smr.thread_exit ())
         in
         smr.Smr.thread_init ();
         for _ = 1 to 50 do
           smr.Smr.retire (alloc_node ())
         done;
         (* several full collect phases completed while the thread spun *)
         Alcotest.(check bool) "phases completed" true (Smr.cleanups smr >= 3);
         Alcotest.(check bool) "nodes were freed" true (Smr.freed smr >= 30);
         Runtime.write ts_phases_done 1;
         Runtime.join stuck;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_lemma3_contrast_epoch_blocks () =
  (* The same situation kills epoch-based reclamation: a thread that never
     leaves its operation blocks every cleanup forever.  We bound the run
     with max_steps and expect the livelock to be caught. *)
  Alcotest.check_raises "epoch cleanup spins forever" Runtime.Step_limit_exceeded (fun () ->
      ignore
        (Runtime.run ~config:{ cfg with max_steps = 300_000 } (fun () ->
             let smr = Ts_reclaim.Epoch.create ~batch:8 ~max_threads:8 () in
             let stuck =
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   smr.Smr.op_begin ();
                   (* never calls op_end *)
                   while true do
                     Runtime.advance 7
                   done)
             in
             ignore stuck;
             smr.Smr.thread_init ();
             for _ = 1 to 20 do
               smr.Smr.op_begin ();
               smr.Smr.retire (alloc_node ());
               smr.Smr.op_end ()
             done)))

(* ------------------------------- Lemma 4 -------------------------------- *)

let test_lemma4_eventual_reclamation () =
  (* Nodes with no stack/register references at phase start are freed by
     that very phase (no false positives from the scan). *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = ts_smr ~buffer_size:16 ~max_threads:4 () in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         (* retire 16 nodes, then wash the register file so nothing is
            conservatively pinned *)
         for _ = 1 to 16 do
           smr.Smr.retire (alloc_node ())
         done;
         for _ = 1 to 64 do
           ignore (Runtime.read noise)
         done;
         (* the 17th retire fills the buffer and triggers the phase *)
         smr.Smr.retire (alloc_node ());
         check "the phase freed every unreferenced node" 16 (Smr.freed smr);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "properties"
    [
      ("lemma-1 safety", [ qt lemma1; qt lemma1_random_walks ]);
      ( "lemma-2 bounded interference",
        [ Alcotest.test_case "reader keeps progress" `Quick test_lemma2_reader_keeps_progress ] );
      ( "lemma-3 collect termination",
        [
          Alcotest.test_case "threadscan independent of stuck thread" `Quick
            test_lemma3_collect_independent_of_stuck_thread;
          Alcotest.test_case "epoch blocks on stuck thread (contrast)" `Quick
            test_lemma3_contrast_epoch_blocks;
        ] );
      ( "lemma-4 eventual reclamation",
        [ Alcotest.test_case "unreferenced freed same phase" `Quick test_lemma4_eventual_reclamation ]
      );
    ]
