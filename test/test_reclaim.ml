module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr
module Leaky = Ts_reclaim.Leaky
module Direct_free = Ts_reclaim.Direct_free
module Hazard = Ts_reclaim.Hazard
module Epoch = Ts_reclaim.Epoch
module Stacktrack = Ts_reclaim.Stacktrack
module Debra = Ts_reclaim.Debra
module Hyaline = Ts_reclaim.Hyaline

let check = Alcotest.(check int)

let cfg = Runtime.default_config

let alloc_node () = Ptr.of_addr (Runtime.malloc 3)

(* -------------------------------- leaky --------------------------------- *)

let test_leaky_never_frees () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         for _ = 1 to 100 do
           smr.Smr.retire (alloc_node ())
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "retired" 100 (Smr.retired smr);
         check "freed nothing" 0 (Smr.freed smr)));
  ignore (Runtime.start r);
  check "all blocks leaked" 100 (Alloc.live_blocks (Runtime.alloc r))

let test_leaky_node_stays_readable () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 9;
         smr.Smr.retire p;
         (* leaky = dangling reads never fault *)
         check "still readable" 9 (Runtime.read (Ptr.addr p))))

(* ------------------------------ direct free ----------------------------- *)

let test_direct_free_frees_immediately () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = Direct_free.create () in
         smr.Smr.thread_init ();
         for _ = 1 to 50 do
           smr.Smr.retire (alloc_node ())
         done;
         check "all freed" 50 (Smr.freed smr)));
  ignore (Runtime.start r);
  check "no blocks live" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_direct_free_causes_uaf () =
  (* The injected failure: a reader holds a reference across a direct free
     and dereferences it.  The unmanaged heap must catch this — proving the
     clean runs of the safe schemes are meaningful. *)
  let saw = ref false in
  (try
     ignore
       (Runtime.run ~config:cfg (fun () ->
            let smr = Direct_free.create () in
            smr.Smr.thread_init ();
            Frame.with_frame 1 (fun fr ->
                let p = alloc_node () in
                Frame.set fr 0 p;
                smr.Smr.retire p;
                ignore (Runtime.read (Ptr.addr p)))))
   with Runtime.Thread_failure (0, Mem.Fault (Mem.Uaf_read, _)) -> saw := true);
  Alcotest.(check bool) "UAF detected" true !saw

(* ------------------------------- hazard --------------------------------- *)

let hp ~max_threads () = Hazard.create ~threshold_extra:8 ~max_threads ()

let test_hazard_unprotected_freed () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = hp ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 100 do
           smr.Smr.retire (alloc_node ())
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "retired" 100 (Smr.retired smr);
         check "all freed" 100 (Smr.freed smr)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_hazard_protected_survives () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = hp ~max_threads:4 () in
         let cell = Runtime.alloc_region 1 in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 321;
         Runtime.write cell p;
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               smr.Smr.op_begin ();
               let q = smr.Smr.protect ~slot:0 (Runtime.read cell) in
               Runtime.write grabbed 1;
               while Runtime.read release = 0 do
                 Runtime.yield ()
               done;
               check "protected node intact" 321 (Runtime.read (Ptr.addr q));
               smr.Smr.release ~slot:0;
               smr.Smr.op_end ();
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         Runtime.write cell 0;
         smr.Smr.retire p;
         (* force scans *)
         for _ = 1 to 60 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "scans happened" true (Smr.cleanups smr >= 1);
         Alcotest.(check bool) "protected node not freed" true
           (Smr.freed smr < Smr.retired smr);
         Runtime.write release 1;
         Runtime.join holder;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "freed after release" 61 (Smr.freed smr)))

let test_hazard_fences_paid () =
  (* protect = store + mfence: the per-step cost the paper measures. *)
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = hp ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 10 do
           ignore (smr.Smr.protect ~slot:0 (Ptr.of_addr 42))
         done;
         smr.Smr.release ~slot:0));
  let res = Runtime.start r in
  check "ten fences" 10 res.Runtime.run_stats.fences

let test_hazard_slot_rotation () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = hp ~max_threads:2 () in
         smr.Smr.thread_init ();
         let p0 = alloc_node () and p1 = alloc_node () in
         ignore (smr.Smr.protect ~slot:0 p0);
         ignore (smr.Smr.protect ~slot:1 p1);
         smr.Smr.retire p0;
         smr.Smr.retire p1;
         for _ = 1 to 40 do
           smr.Smr.retire (alloc_node ())
         done;
         (* both slots protect *)
         ignore (Runtime.read (Ptr.addr p0));
         ignore (Runtime.read (Ptr.addr p1));
         smr.Smr.op_end ();
         (* op_end clears every slot *)
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "everything freed once unprotected" 42 (Smr.freed smr)))

let test_hazard_orphans_reclaimed () =
  (* a thread exits with a non-empty retire list; flush must pick it up *)
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = hp ~max_threads:4 () in
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               for _ = 1 to 5 do
                 smr.Smr.retire (alloc_node ())
               done;
               smr.Smr.thread_exit ())
         in
         Runtime.join w;
         smr.Smr.flush ();
         check "orphans freed" 5 (Smr.freed smr)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

(* -------------------------------- epoch --------------------------------- *)

let ep ?errant ~max_threads () = Epoch.create ?errant ~batch:16 ~max_threads ()

let test_epoch_quiescent_frees () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = ep ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 100 do
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all freed" 100 (Smr.freed smr);
         Alcotest.(check bool) "several cleanups" true (Smr.cleanups smr >= 4)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_epoch_waits_for_reader () =
  (* A mid-operation reader blocks the reclaimer until its op ends. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = ep ~max_threads:4 () in
         let cell = Runtime.alloc_region 1 in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         let freed_at = Runtime.alloc_region 1 in
         let reader_done_at = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 456;
         Runtime.write cell p;
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               smr.Smr.op_begin ();
               Frame.with_frame 1 (fun fr ->
                   Frame.set fr 0 (Runtime.read cell);
                   Runtime.write grabbed 1;
                   while Runtime.read release = 0 do
                     Runtime.yield ()
                   done;
                   (* still inside the operation: the node must be alive *)
                   check "alive inside op" 456 (Runtime.read (Ptr.addr (Frame.get fr 0))));
               Runtime.write reader_done_at (Runtime.now ());
               smr.Smr.op_end ();
               smr.Smr.thread_exit ())
         in
         let reclaimer =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               while Runtime.read grabbed = 0 do
                 Runtime.yield ()
               done;
               smr.Smr.op_begin ();
               Runtime.write cell 0;
               smr.Smr.retire p;
               for _ = 1 to 20 do
                 smr.Smr.retire (alloc_node ())
               done;
               smr.Smr.op_end ();
               (* the batch overflowed: cleanup ran inside op_end and must
                  have waited for the holder *)
               Runtime.write freed_at (Runtime.now ());
               smr.Smr.thread_exit ())
         in
         Runtime.advance 5_000;
         Runtime.write release 1;
         Runtime.join holder;
         Runtime.join reclaimer;
         Alcotest.(check bool) "cleanup finished after reader's op" true
           (Runtime.read freed_at > Runtime.read reader_done_at);
         check "eventually freed" 21 (Smr.freed smr);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_epoch_no_mutual_stall () =
  (* Two threads reclaiming simultaneously must not deadlock. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = ep ~max_threads:4 () in
         let worker () =
           smr.Smr.thread_init ();
           for _ = 1 to 200 do
             smr.Smr.op_begin ();
             smr.Smr.retire (alloc_node ());
             smr.Smr.op_end ()
           done;
           smr.Smr.thread_exit ()
         in
         let a = Runtime.spawn worker and b = Runtime.spawn worker in
         Runtime.join a;
         Runtime.join b;
         smr.Smr.flush ();
         check "all freed" 400 (Smr.freed smr)))

let test_slow_epoch_stalls_others () =
  (* The errant thread's in-operation delay holds up the other thread's
     cleanup: measurable as stall cycles on the victim. *)
  let extras_of smr = smr.Smr.extras () in
  let stall_with errant =
    let out = ref 0 in
    ignore
      (Runtime.run ~config:{ cfg with seed = 11 } (fun () ->
           let smr = Epoch.create ?errant ~batch:16 ~max_threads:4 () in
           let worker () =
             smr.Smr.thread_init ();
             for _ = 1 to 150 do
               smr.Smr.op_begin ();
               smr.Smr.retire (alloc_node ());
               smr.Smr.op_end ()
             done;
             smr.Smr.thread_exit ()
           in
           let a = Runtime.spawn worker in
           let b = Runtime.spawn worker in
           Runtime.join a;
           Runtime.join b;
           smr.Smr.flush ();
           out := List.assoc "stall-cycles" (extras_of smr)));
    !out
  in
  let baseline = stall_with None in
  let slowed = stall_with (Some (1, 100_000)) in
  Alcotest.(check bool)
    (Fmt.str "stalls grow with errant delay (%d -> %d)" baseline slowed)
    true
    (slowed > baseline + 50_000)

let test_epoch_two_writes_per_op () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = ep ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 7 do
           smr.Smr.op_begin ();
           smr.Smr.op_end ()
         done));
  let res = Runtime.start r in
  check "exactly two counter writes per op" 14 res.Runtime.run_stats.writes

(* ------------------------------ stacktrack ------------------------------ *)

let st ~max_threads () = Stacktrack.create ~ring:16 ~threshold:24 ~max_threads ()

let test_stacktrack_unreferenced_freed () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = st ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 100 do
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all freed" 100 (Smr.freed smr);
         Alcotest.(check bool) "scans ran" true (Smr.cleanups smr >= 2)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_stacktrack_visible_ref_survives () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = st ~max_threads:4 () in
         let cell = Runtime.alloc_region 1 in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 654;
         Runtime.write cell p;
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               smr.Smr.op_begin ();
               (* publish the access in the visible ring, like the
                  StackTrack fallback path does per read *)
               let q = smr.Smr.protect ~slot:0 (Runtime.read cell) in
               Runtime.write grabbed 1;
               while Runtime.read release = 0 do
                 Runtime.yield ()
               done;
               check "visible node intact" 654 (Runtime.read (Ptr.addr q));
               smr.Smr.op_end ();
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         Runtime.write cell 0;
         smr.Smr.retire p;
         for _ = 1 to 60 do
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         Alcotest.(check bool) "held back while visible" true
           (Smr.freed smr < Smr.retired smr);
         Runtime.write release 1;
         Runtime.join holder;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "freed after op ended" 61 (Smr.freed smr)))

let test_stacktrack_ring_reset_per_op () =
  (* references published in an earlier operation do not pin after op_end *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = st ~max_threads:2 () in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         smr.Smr.op_begin ();
         ignore (smr.Smr.protect ~slot:0 p);
         smr.Smr.op_end ();
         smr.Smr.op_begin ();
         smr.Smr.retire p;
         for _ = 1 to 40 do
           smr.Smr.retire (alloc_node ())
         done;
         smr.Smr.op_end ();
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "stale publication did not pin" 0
           (Smr.outstanding smr)))

let test_stacktrack_cheaper_than_hazard () =
  (* the scheme's selling point: publication is two plain stores, no fence *)
  let fences_of make =
    let r = Runtime.create cfg in
    ignore
      (Runtime.add_thread r (fun () ->
           let smr = make () in
           smr.Smr.thread_init ();
           smr.Smr.op_begin ();
           for _ = 1 to 10 do
             ignore (smr.Smr.protect ~slot:0 (Ptr.of_addr 42))
           done;
           smr.Smr.op_end ()));
    (Runtime.start r).Runtime.run_stats.fences
  in
  check "stacktrack protect uses no fences" 0 (fences_of (st ~max_threads:2));
  check "hazard protect fences every time" 10 (fences_of (hp ~max_threads:2))

(* -------------------------------- debra --------------------------------- *)

let test_debra_quiescent_frees () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = Debra.create ~batch:16 ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 100 do
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all freed" 100 (Smr.freed smr);
         Alcotest.(check bool) "several cleanups" true (Smr.cleanups smr >= 2)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_debra_neutralizes_pinned_reader () =
  (* The scheme's whole point: where plain epoch wedges behind a reader
     that never leaves its operation, DEBRA+ signals it, the handler
     announces quiescence and aborts the operation with [Neutralized],
     and reclamation proceeds. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Debra.create ~batch:8 ~max_threads:4 () in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         let neutralized = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               (try
                  smr.Smr.op_begin ();
                  Runtime.write grabbed 1;
                  while Runtime.read release = 0 do
                    Runtime.yield ()
                  done;
                  smr.Smr.op_end ()
                with Smr.Neutralized -> Runtime.write neutralized 1);
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         let rounds = ref 0 in
         while Runtime.read neutralized = 0 && !rounds < 100 do
           incr rounds;
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         Runtime.write release 1;
         Runtime.join holder;
         check "reader was neutralized" 1 (Runtime.read neutralized);
         Alcotest.(check bool) "neutralization counted" true
           (List.assoc "neutralizations" (smr.Smr.extras ()) >= 1);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "nothing pinned afterwards" 0
           (Smr.outstanding smr)))

let test_debra_no_mutual_stall () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Debra.create ~batch:16 ~max_threads:4 () in
         let worker () =
           smr.Smr.thread_init ();
           for _ = 1 to 200 do
             let rec op () =
               try
                 smr.Smr.op_begin ();
                 smr.Smr.retire (alloc_node ());
                 smr.Smr.op_end ()
               with Smr.Neutralized -> op ()
             in
             op ()
           done;
           smr.Smr.thread_exit ()
         in
         let a = Runtime.spawn worker and b = Runtime.spawn worker in
         Runtime.join a;
         Runtime.join b;
         smr.Smr.flush ();
         Alcotest.(check bool) "at least the clean retires freed" true
           (Smr.freed smr >= 400);
         check "conservation" (Smr.retired smr) (Smr.freed smr)))

(* ------------------------------- hyaline -------------------------------- *)

let test_hyaline_idle_batches_free_immediately () =
  (* publish with href = 0 short-circuits: retirement outside any
     operation frees on the spot *)
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = Hyaline.create ~batch:8 ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 16 do
           smr.Smr.retire (alloc_node ())
         done;
         check "all freed" 16 (Smr.freed smr);
         check "both batches freed on the spot" 2
           (List.assoc "immediate-frees" (smr.Smr.extras ()))));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_hyaline_active_reader_pins_batches () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Hyaline.create ~batch:8 ~max_threads:4 () in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               smr.Smr.op_begin ();
               Runtime.write grabbed 1;
               while Runtime.read release = 0 do
                 Runtime.yield ()
               done;
               smr.Smr.op_end ();
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         for _ = 1 to 40 do
           smr.Smr.op_begin ();
           smr.Smr.retire (alloc_node ());
           smr.Smr.op_end ()
         done;
         (* every batch was published while the holder was inside an
            operation: its reference pins them all *)
         check "nothing freed while reader active" 0 (Smr.freed smr);
         Runtime.write release 1;
         Runtime.join holder;
         (* the holder's leave walked the whole list and dropped the last
            reference on each batch *)
         check "all batches freed by the leave" 40 (Smr.freed smr);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_hyaline_op_path_fence_free () =
  (* the advertised cost model: enter and leave are one fetch-and-add
     each — no CAS loop, no fence, on the operation path *)
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = Hyaline.create ~batch:8 ~max_threads:2 () in
         smr.Smr.thread_init ();
         for _ = 1 to 7 do
           smr.Smr.op_begin ();
           smr.Smr.op_end ()
         done));
  let res = Runtime.start r in
  check "no CAS on the op path" 0 res.Runtime.run_stats.cas_ops;
  check "no fences on the op path" 0 res.Runtime.run_stats.fences

let () =
  Alcotest.run "ts_reclaim"
    [
      ( "leaky",
        [
          Alcotest.test_case "never frees" `Quick test_leaky_never_frees;
          Alcotest.test_case "dangling stays readable" `Quick test_leaky_node_stays_readable;
        ] );
      ( "direct-free",
        [
          Alcotest.test_case "frees immediately" `Quick test_direct_free_frees_immediately;
          Alcotest.test_case "causes detectable UAF" `Quick test_direct_free_causes_uaf;
        ] );
      ( "hazard",
        [
          Alcotest.test_case "unprotected freed" `Quick test_hazard_unprotected_freed;
          Alcotest.test_case "protected survives" `Quick test_hazard_protected_survives;
          Alcotest.test_case "fence per protect" `Quick test_hazard_fences_paid;
          Alcotest.test_case "slot rotation" `Quick test_hazard_slot_rotation;
          Alcotest.test_case "orphans reclaimed" `Quick test_hazard_orphans_reclaimed;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "quiescent frees" `Quick test_epoch_quiescent_frees;
          Alcotest.test_case "waits for reader" `Quick test_epoch_waits_for_reader;
          Alcotest.test_case "no mutual stall" `Quick test_epoch_no_mutual_stall;
          Alcotest.test_case "slow epoch stalls others" `Quick test_slow_epoch_stalls_others;
          Alcotest.test_case "two writes per op" `Quick test_epoch_two_writes_per_op;
        ] );
      ( "stacktrack",
        [
          Alcotest.test_case "unreferenced freed" `Quick test_stacktrack_unreferenced_freed;
          Alcotest.test_case "visible ref survives" `Quick test_stacktrack_visible_ref_survives;
          Alcotest.test_case "ring reset per op" `Quick test_stacktrack_ring_reset_per_op;
          Alcotest.test_case "no fences (vs hazard)" `Quick test_stacktrack_cheaper_than_hazard;
        ] );
      ( "debra",
        [
          Alcotest.test_case "quiescent frees" `Quick test_debra_quiescent_frees;
          Alcotest.test_case "neutralizes pinned reader" `Quick
            test_debra_neutralizes_pinned_reader;
          Alcotest.test_case "no mutual stall" `Quick test_debra_no_mutual_stall;
        ] );
      ( "hyaline",
        [
          Alcotest.test_case "idle batches free immediately" `Quick
            test_hyaline_idle_batches_free_immediately;
          Alcotest.test_case "active reader pins batches" `Quick
            test_hyaline_active_reader_pins_batches;
          Alcotest.test_case "op path fence-free" `Quick test_hyaline_op_path_fence_free;
        ] );
    ]
