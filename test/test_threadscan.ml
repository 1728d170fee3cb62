module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr
module Config = Threadscan.Config
module Delete_buffer = Threadscan.Delete_buffer
module Master_buffer = Threadscan.Master_buffer

let check = Alcotest.(check int)

let cfg = Runtime.default_config

let small_ts ?(buffer_size = 8) ?(max_threads = 16) () =
  Threadscan.create ~config:{ Config.default with max_threads; buffer_size } ()

(* ---------------------------- delete buffer ----------------------------- *)

(* Drain [b] into a fresh region of [cap] words: what it moved, in order. *)
let drain_all ?(cap = 64) b =
  let dst = Runtime.alloc_region cap and cursor = ref 0 in
  Delete_buffer.drain b ~dst ~cap cursor;
  List.init !cursor (fun i -> Runtime.read (dst + i))

let test_db_push_drain () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let b = Delete_buffer.create ~capacity:4 in
         Alcotest.(check bool) "push 1" true (Delete_buffer.push b 10);
         Alcotest.(check bool) "push 2" true (Delete_buffer.push b 20);
         check "size" 2 (Delete_buffer.size b);
         Alcotest.(check (list int)) "fifo" [ 10; 20 ] (drain_all b);
         check "empty after drain" 0 (Delete_buffer.size b)))

let test_db_full () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let b = Delete_buffer.create ~capacity:3 in
         Alcotest.(check bool) "1" true (Delete_buffer.push b 1);
         Alcotest.(check bool) "2" true (Delete_buffer.push b 2);
         Alcotest.(check bool) "3" true (Delete_buffer.push b 3);
         Alcotest.(check bool) "full" false (Delete_buffer.push b 4);
         ignore (drain_all b);
         Alcotest.(check bool) "reusable" true (Delete_buffer.push b 5)))

let test_db_wraparound () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let b = Delete_buffer.create ~capacity:3 in
         for round = 0 to 9 do
           Alcotest.(check bool) "push a" true (Delete_buffer.push b (2 * round));
           Alcotest.(check bool) "push b" true (Delete_buffer.push b ((2 * round) + 1));
           Alcotest.(check (list int)) "wrap fifo" [ 2 * round; (2 * round) + 1 ] (drain_all b)
         done))

let test_db_partial_drain () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let b = Delete_buffer.create ~capacity:8 in
         List.iter (fun p -> ignore (Delete_buffer.push b p)) [ 1; 2; 3; 4 ];
         (* room for two: the rest stays buffered *)
         Alcotest.(check (list int)) "the oldest two" [ 1; 2 ] (drain_all ~cap:2 b);
         check "two consumed" 2 (Delete_buffer.size b)))

(* ---------------------------- master buffer ----------------------------- *)

let test_mb_publish_find () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let m = Master_buffer.create ~capacity:16 in
         List.iter (fun p -> ignore (Master_buffer.append m p)) [ 56; 8; 8; 120; 32 ];
         Master_buffer.publish_sorted m;
         check "deduped count" 4 (Master_buffer.count m);
         List.iter
           (fun p ->
             Alcotest.(check bool) (Fmt.str "finds %d" p) true (Master_buffer.find m p >= 0))
           [ 8; 32; 56; 120 ];
         check "misses" (-1) (Master_buffer.find m 57);
         let lo, hi = Master_buffer.bounds m in
         check "lo" 8 lo;
         check "hi" 120 hi))

let test_mb_mark_sweep_carry () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let m = Master_buffer.create ~capacity:16 in
         List.iter (fun p -> ignore (Master_buffer.append m p)) [ 40; 8; 24 ];
         Master_buffer.publish_sorted m;
         Master_buffer.mark m (Master_buffer.find m 24);
         let freed = ref [] in
         let carry = Master_buffer.sweep m (fun p -> freed := p :: !freed) in
         check "one carried" 1 carry;
         Alcotest.(check (list int)) "unmarked freed" [ 8; 40 ] (List.sort compare !freed);
         (* next phase: carry is re-staged, new appends go on top *)
         ignore (Master_buffer.append m 16);
         Master_buffer.publish_sorted m;
         check "carry + new" 2 (Master_buffer.count m);
         Alcotest.(check bool) "carry still present" true (Master_buffer.find m 24 >= 0)))

let test_mb_overflow () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let m = Master_buffer.create ~capacity:2 in
         Alcotest.(check bool) "1" true (Master_buffer.append m 8);
         Alcotest.(check bool) "2" true (Master_buffer.append m 16);
         Alcotest.(check bool) "full" false (Master_buffer.append m 24)))

let test_mb_marks_reset_on_publish () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let m = Master_buffer.create ~capacity:8 in
         ignore (Master_buffer.append m 8);
         Master_buffer.publish_sorted m;
         Master_buffer.mark m 0;
         ignore (Master_buffer.sweep m (fun _ -> Alcotest.fail "marked must not be freed"));
         Master_buffer.publish_sorted m;
         Alcotest.(check bool) "mark cleared" false (Master_buffer.is_marked m 0);
         let freed = ref 0 in
         ignore (Master_buffer.sweep m (fun _ -> incr freed));
         check "freed on second sweep" 1 !freed))

(* Several phases of a master buffer, through the phase's buffer ops:
   two delete buffers (their rings wrap) drained into a master that
   fills up in some rounds, published with duplicates to drop, marked
   and swept.  Returns the master's words after each phase — its count,
   every entry and every mark — with the carry and the frees, and how
   far the whole run moved [now ()] and [steps_now ()]; and whether the
   master did fill up. *)
let master_phases () =
  let cap = 10 in
  let filled = ref false in
  let m = Master_buffer.create ~capacity:cap in
  let bufs = Array.init 2 (fun _ -> Delete_buffer.create ~capacity:5) in
  let t0 = Ts_rt.now () and s0 = Ts_rt.steps_now () in
  let rounds =
    List.init 6 (fun round ->
        Array.iteri
          (fun j b ->
            for i = 0 to 3 do
              (* buffer 1 repeats buffer 0's last pointer: a duplicate *)
              ignore (Delete_buffer.push b (8 * ((round * 10) + (j * 3) + i + 1)))
            done)
          bufs;
        Array.iter (Master_buffer.drain_from m) bufs;
        if Delete_buffer.size bufs.(1) > 0 then filled := true;
        Master_buffer.publish_sorted m;
        let n = Master_buffer.count m in
        for i = 0 to n - 1 do
          if (i + round) mod 3 = 0 then Master_buffer.mark m i
        done;
        let published =
          n
          :: List.init cap (fun i -> Master_buffer.entry m i)
          @ List.init cap (fun i -> if Master_buffer.is_marked m i then 1 else 0)
        in
        let freed = ref [] in
        let carry = Master_buffer.sweep m (fun p -> freed := p :: !freed) in
        published @ (carry :: List.init cap (fun i -> Master_buffer.entry m i)) @ List.rev !freed)
  in
  (List.concat rounds @ [ Ts_rt.now () - t0; Ts_rt.steps_now () - s0 ], !filled)

(* The same run with the four ops replaced by their reference loops over
   the installed [read] and [write]. *)
let with_reference_loops f =
  Ts_rt.set_decorator
    (Some
       (fun (o : Ts_rt.ops) ->
         {
           o with
           drain = Ts_rt.drain_by o.read o.write;
           read_words = Ts_rt.read_words_by o.read;
           publish = Ts_rt.publish_by o.write;
           sweep = Ts_rt.sweep_by o.read o.write;
         }));
  Fun.protect ~finally:(fun () -> Ts_rt.set_decorator None) f

let test_master_matches_reference () =
  let on_sim () =
    let out = ref ([], false) in
    ignore (Runtime.run ~config:cfg (fun () -> out := master_phases ()));
    !out
  and on_native () =
    let out = ref ([], false) in
    let module R = Ts_par.Runtime in
    ignore (R.run ~config:{ R.default_config with pool = 2 } (fun () -> out := master_phases ()));
    !out
  in
  List.iter
    (fun (name, run) ->
      let ops, filled = run () in
      Alcotest.(check bool) (name ^ ": the master fills up") true filled;
      Alcotest.(check (list int)) name (fst (with_reference_loops run)) ops)
    [ ("sim", on_sim); ("native", on_native) ]

(* --------------------------- single-thread flow ------------------------- *)

(* Allocate a 3-word node and return its pointer value. *)
let alloc_node () = Ptr.of_addr (Runtime.malloc 3)

let test_unreferenced_nodes_reclaimed () =
  let freed = ref 0 and retired = ref 0 and phases = ref 0 in
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let ts = small_ts () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         (* retire 50 nodes with an 8-slot buffer: several phases must fire *)
         for _ = 1 to 50 do
           smr.Smr.retire (alloc_node ())
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         freed := Smr.freed smr;
         retired := Smr.retired smr;
         phases := Threadscan.phases ts));
  ignore (Runtime.start r);
  check "all retired" 50 !retired;
  check "all freed" 50 !freed;
  Alcotest.(check bool) "several phases" true (!phases >= 4);
  check "allocator drained" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_phase_triggered_by_full_buffer () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         for _ = 1 to 8 do
           smr.Smr.retire (alloc_node ())
         done;
         check "buffer not yet overflowed" 0 (Threadscan.phases ts);
         smr.Smr.retire (alloc_node ());
         check "ninth retire forced a collect" 1 (Threadscan.phases ts);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_stack_reference_pins_node () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         Frame.with_frame 1 (fun fr ->
             let p = alloc_node () in
             Frame.set fr 0 p;
             smr.Smr.retire p;
             (* force phases by retiring garbage *)
             for _ = 1 to 30 do
               smr.Smr.retire (alloc_node ())
             done;
             Alcotest.(check bool) "phases ran" true (Threadscan.phases ts >= 1);
             (* node is still alive: dereferencing it must not fault *)
             ignore (Runtime.read (Ptr.addr p));
             Alcotest.(check bool) "carried over" true (Threadscan.carried_last ts >= 1);
             Frame.set fr 0 0);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "released node reclaimed at flush" 0 (Threadscan.outstanding ts)))

let test_popped_frame_does_not_pin () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         (* hold the pointer in a frame, then pop the frame: the stale word
            beyond sp must NOT pin the node *)
         let p = alloc_node () in
         Frame.with_frame 1 (fun fr -> Frame.set fr 0 p);
         smr.Smr.retire p;
         for _ = 1 to 30 do
           smr.Smr.retire (alloc_node ())
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "nothing pinned" 0 (Threadscan.outstanding ts)))

(* --------------------------- multi-thread flows ------------------------- *)

let test_cross_thread_protection () =
  (* B holds a reference to a node A retires; the node must survive until B
     drops it.  Strict memory turns any wrong free into a failure. *)
  let outstanding_mid = ref 0 in
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         let cell = Runtime.alloc_region 1 in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 777;
         Runtime.write cell p;
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   Frame.set fr 0 (Runtime.read cell);
                   Runtime.write grabbed 1;
                   while Runtime.read release = 0 do
                     Runtime.yield ()
                   done;
                   (* still dereferenceable after many phases elsewhere *)
                   check "node content intact" 777 (Runtime.read (Ptr.addr (Frame.get fr 0)));
                   Frame.set fr 0 0);
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         (* unlink and retire while B holds it *)
         Runtime.write cell 0;
         smr.Smr.retire p;
         for _ = 1 to 40 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "phases ran while held" true (Threadscan.phases ts >= 2);
         outstanding_mid := Threadscan.outstanding ts;
         Runtime.write release 1;
         Runtime.join holder;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "everything reclaimed in the end" 0 (Threadscan.outstanding ts)));
  Alcotest.(check bool) "held node was outstanding mid-run" true (!outstanding_mid >= 1)

let test_register_only_reference_protected () =
  (* The holder never stores the pointer to its stack: protection must come
     from the register file mirrored at signal delivery. *)
  ignore
    (Runtime.run ~config:{ cfg with reg_words = 512 } (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         let cell = Runtime.alloc_region 1 in
         let release = Runtime.alloc_region 1 in
         let grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 888;
         Runtime.write cell p;
         let holder =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               let q = Runtime.read cell in
               Runtime.write grabbed 1;
               while Runtime.read release = 0 do
                 Runtime.yield ()
               done;
               check "register-held node intact" 888 (Runtime.read (Ptr.addr q));
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         Runtime.write cell 0;
         smr.Smr.retire p;
         for _ = 1 to 20 do
           smr.Smr.retire (alloc_node ())
         done;
         Runtime.write release 1;
         Runtime.join holder;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_many_threads_churn () =
  let r = Runtime.create { cfg with cores = 4; seed = 5 } in
  let leftover = ref (-1) in
  ignore
    (Runtime.add_thread r (fun () ->
         let ts = small_ts ~buffer_size:16 ~max_threads:16 () in
         let smr = Threadscan.smr ts in
         let slots = Runtime.alloc_region 8 in
         smr.Smr.thread_init ();
         let worker i () =
           smr.Smr.thread_init ();
           Frame.with_frame 2 (fun fr ->
               for _ = 1 to 60 do
                 (* publish a fresh node *)
                 let p = alloc_node () in
                 Runtime.write (Ptr.addr p) 1234;
                 Runtime.write (slots + i) p;
                 (* peek at a random neighbour's node *)
                 let q = Runtime.read (slots + Runtime.rand_below 8) in
                 Frame.set fr 0 q;
                 if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q));
                 Frame.set fr 0 0;
                 (* unlink own node and retire it *)
                 let mine = Runtime.read (slots + i) in
                 Runtime.write (slots + i) 0;
                 if not (Ptr.is_null mine) then smr.Smr.retire mine
               done);
           smr.Smr.thread_exit ()
         in
         let ts_list = List.init 8 (fun i -> Runtime.spawn (worker i)) in
         List.iter Runtime.join ts_list;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         leftover := Threadscan.outstanding ts));
  ignore (Runtime.start r);
  (* strict memory already proved no UAF; now prove no leak beyond pins *)
  check "no outstanding nodes" 0 !leftover;
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_determinism_with_reclamation () =
  let snapshot () =
    let r = Runtime.create { cfg with cores = 4; seed = 123 } in
    let phases = ref 0 and signals = ref 0 in
    ignore
      (Runtime.add_thread r (fun () ->
           let ts = small_ts ~buffer_size:16 () in
           let smr = Threadscan.smr ts in
           smr.Smr.thread_init ();
           let workers =
             List.init 6 (fun _ ->
                 Runtime.spawn (fun () ->
                     smr.Smr.thread_init ();
                     for _ = 1 to 100 do
                       smr.Smr.retire (alloc_node ())
                     done;
                     smr.Smr.thread_exit ()))
           in
           List.iter Runtime.join workers;
           smr.Smr.thread_exit ();
           smr.Smr.flush ();
           phases := Threadscan.phases ts;
           signals := Threadscan.signals_sent ts));
    let res = Runtime.start r in
    (!phases, !signals, res.Runtime.elapsed)
  in
  let p1, s1, e1 = snapshot () in
  let p2, s2, e2 = snapshot () in
  check "phases equal" p1 p2;
  check "signals equal" s1 s2;
  check "elapsed equal" e1 e2

let test_signals_scale_with_threads () =
  let signals_for n =
    let out = ref 0 in
    ignore
      (Runtime.run ~config:cfg (fun () ->
           let ts = small_ts ~buffer_size:8 ~max_threads:32 () in
           let smr = Threadscan.smr ts in
           let stop = Runtime.alloc_region 1 in
           let bystanders =
             List.init n (fun _ ->
                 Runtime.spawn (fun () ->
                     smr.Smr.thread_init ();
                     while Runtime.read stop = 0 do
                       Runtime.yield ()
                     done;
                     smr.Smr.thread_exit ()))
           in
           smr.Smr.thread_init ();
           for _ = 1 to 9 do
             smr.Smr.retire (alloc_node ())
           done;
           check "one phase" 1 (Threadscan.phases ts);
           out := Threadscan.signals_sent ts;
           Runtime.write stop 1;
           List.iter Runtime.join bystanders;
           smr.Smr.thread_exit ();
           smr.Smr.flush ()));
    !out
  in
  check "3 bystanders -> 3 signals" 3 (signals_for 3);
  check "7 bystanders -> 7 signals" 7 (signals_for 7)

let test_thread_exit_mid_phase_no_deadlock () =
  (* A registered thread that exits is never waited for. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         let t =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Runtime.advance 50;
               smr.Smr.thread_exit ())
         in
         smr.Smr.thread_init ();
         Runtime.join t;
         (* t is gone but was registered and deregistered; collect must not
            hang waiting for it *)
         for _ = 1 to 20 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "phases completed" true (Threadscan.phases ts >= 2);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

(* ------------------------- heap-block extension ------------------------- *)

let test_heap_block_extension_pins () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         (* private references stored in a heap block, not on the stack *)
         let blk = Runtime.malloc 4 in
         Threadscan.add_heap_block ~start_addr:blk ~len:4;
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 555;
         Runtime.write blk p;
         smr.Smr.retire p;
         for _ = 1 to 30 do
           smr.Smr.retire (alloc_node ())
         done;
         (* the heap-block reference kept it alive *)
         check "alive via heap block" 555 (Runtime.read (Ptr.addr p));
         Runtime.write blk 0;
         Threadscan.remove_heap_block ~start_addr:blk ~len:4;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "freed after deregistration" 0 (Threadscan.outstanding ts);
         Runtime.free blk))

let test_heap_block_without_registration_uaf () =
  (* The same pattern WITHOUT registering the block violates Assumption 1
     and must produce a detectable use-after-free — demonstrating that the
     extension is load-bearing. *)
  let saw_uaf = ref false in
  (try
     ignore
       (Runtime.run ~config:cfg (fun () ->
            let ts = small_ts () in
            let smr = Threadscan.smr ts in
            smr.Smr.thread_init ();
            let blk = Runtime.malloc 4 in
            let noise = Runtime.alloc_region 1 in
            let p = alloc_node () in
            Runtime.write blk p;
            smr.Smr.retire p;
            (* Ordinary register traffic between retires, as any real
               workload has: without it the reclaimer's own register file
               conservatively pins recent pointers. *)
            for _ = 1 to 40 do
              smr.Smr.retire (alloc_node ());
              for _ = 1 to 40 do
                ignore (Runtime.read noise)
              done
            done;
            (* p was reclaimed because nothing scannable held it *)
            ignore (Runtime.read (Ptr.addr (Runtime.read blk)))))
   with Runtime.Thread_failure (_, Mem.Fault (Mem.Uaf_read, _)) -> saw_uaf := true);
  Alcotest.(check bool) "unregistered heap ref is unsafe" true !saw_uaf

let test_released_node_freed_without_flush () =
  (* a carried node must be reclaimed by a later ordinary phase once the
     holder lets go — flush is only for end-of-run stragglers *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         Frame.with_frame 1 (fun fr ->
             let p = alloc_node () in
             Frame.set fr 0 p;
             smr.Smr.retire p;
             for _ = 1 to 20 do
               smr.Smr.retire (alloc_node ())
             done;
             Alcotest.(check bool) "still outstanding while held" true
               (Threadscan.outstanding ts > 0);
             Frame.set fr 0 0);
         (* frame slot cleared: flush registers by reading, then more phases *)
         for _ = 1 to 60 do
           smr.Smr.retire (alloc_node ());
           for _ = 1 to 30 do
             ignore (Runtime.read noise)
           done
         done;
         Alcotest.(check bool) "reclaimed by a later phase, no flush involved" true
           (Threadscan.outstanding ts <= 8);
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_racing_reclaimers_serialize () =
  ignore
    (Runtime.run ~config:{ cfg with seed = 77 } (fun () ->
         let ts = small_ts ~buffer_size:4 ~max_threads:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let ws =
           List.init 4 (fun _ ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for _ = 1 to 50 do
                     smr.Smr.retire (alloc_node ())
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join ws;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "accounting exact despite racing reclaimers" 200 (Smr.freed smr);
         Alcotest.(check bool) "contention on the reclaimer lock observed" true
           (Threadscan.full_waits ts > 0)))

let test_unregistered_thread_not_signaled () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         let stop = Runtime.alloc_region 1 in
         (* a bystander that never calls thread_init *)
         let bystander =
           Runtime.spawn (fun () ->
               while Runtime.read stop = 0 do
                 Runtime.yield ()
               done)
         in
         smr.Smr.thread_init ();
         for _ = 1 to 9 do
           smr.Smr.retire (alloc_node ())
         done;
         check "phase ran" 1 (Threadscan.phases ts);
         check "nobody to signal" 0 (Threadscan.signals_sent ts);
         Runtime.write stop 1;
         Runtime.join bystander;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_generational_churn_one_core () =
  (* threads come and go while reclamation phases run on a single core:
     registration, deregistration, signal boosting and the ack protocol all
     interleave; strict memory and exact accounting close the case *)
  let r = Runtime.create { cfg with cores = 1; quantum = 3_000; seed = 31 } in
  ignore
    (Runtime.add_thread r (fun () ->
         let ts = small_ts ~buffer_size:6 ~max_threads:24 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let cell = Runtime.alloc_region 1 in
         let generation g () =
           smr.Smr.thread_init ();
           Frame.with_frame 1 (fun fr ->
               for _ = 1 to 20 + (3 * g) do
                 let q = Runtime.read cell in
                 Frame.set fr 0 q;
                 if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q));
                 Frame.set fr 0 0;
                 (* exclusive unlink via CAS: exactly one thread retires any
                    given node (the paper's retire-after-unlink contract; a
                    plain read+write pair can double-retire under races) *)
                 let p = alloc_node () in
                 let old = Runtime.read cell in
                 if Runtime.cas cell old p then begin
                   if not (Ptr.is_null old) then smr.Smr.retire old
                 end
                 else Runtime.free (Ptr.addr p)
               done);
           smr.Smr.thread_exit ()
         in
         for g = 0 to 3 do
           let ws = List.init 4 (fun _ -> Runtime.spawn (generation g)) in
           List.iter Runtime.join ws
         done;
         let last = Runtime.read cell in
         Runtime.write cell 0;
         if not (Ptr.is_null last) then smr.Smr.retire last;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         Alcotest.(check bool) "phases ran" true (Threadscan.phases ts >= 3);
         check "exact reclamation across generations" 0 (Threadscan.outstanding ts)));
  ignore (Runtime.start r);
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_false_positive_pins_but_is_safe () =
  (* Assumption 1.3: an arbitrary stack word that happens to equal a node
     pointer is conservatively treated as a reference.  The node survives
     (delayed reclamation), and nothing unsafe happens. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         Frame.with_frame 1 (fun fr ->
             let p = alloc_node () in
             (* store the INTEGER value of the pointer, computed, not loaded:
                to the scan it is indistinguishable from a reference *)
             Frame.set fr 0 (Ptr.addr p * 8);
             smr.Smr.retire p;
             for _ = 1 to 30 do
               smr.Smr.retire (alloc_node ());
               for _ = 1 to 40 do
                 ignore (Runtime.read noise)
               done
             done;
             (* the accidental match kept it alive *)
             ignore (Runtime.read (Ptr.addr p));
             Alcotest.(check bool) "conservatively carried" true
               (Threadscan.outstanding ts >= 1);
             Frame.set fr 0 0);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "reclaimed once the collision was gone" 0 (Threadscan.outstanding ts)))

let test_tagged_pointer_still_matches () =
  (* §4.2: the scan masks the low-order bits, so a mark-tagged copy of a
     pointer still protects the node *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         Frame.with_frame 1 (fun fr ->
             let p = alloc_node () in
             Frame.set fr 0 (Ptr.mark p);
             smr.Smr.retire p;
             for _ = 1 to 30 do
               smr.Smr.retire (alloc_node ());
               for _ = 1 to 40 do
                 ignore (Runtime.read noise)
               done
             done;
             ignore (Runtime.read (Ptr.addr p));
             Frame.set fr 0 0);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "clean in the end" 0 (Threadscan.outstanding ts)))

let test_tagged_top_entry_still_matches () =
  (* The scan's window is the masked bounds widened to every tag: a tagged
     copy of the *highest* master entry lies above [hi] itself and must
     still protect its node.  Every retired node comes from [nodes], so
     whenever [top] is in the master it is the last entry. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         let nodes = List.init 30 (fun _ -> alloc_node ()) in
         let top = List.fold_left max Ptr.null nodes in
         Frame.with_frame 1 (fun fr ->
             Frame.set fr 0 (Ptr.mark top);
             List.iter
               (fun p ->
                 smr.Smr.retire p;
                 for _ = 1 to 40 do
                   ignore (Runtime.read noise)
                 done)
               nodes;
             Alcotest.(check bool) "some phase ran" true (Threadscan.phases ts > 0);
             (* a strict-memory read: raises if [top] was freed *)
             ignore (Runtime.read (Ptr.addr top));
             Alcotest.(check bool) "the tagged top entry was carried" true
               (Threadscan.outstanding ts >= 1);
             Frame.set fr 0 0);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "clean in the end" 0 (Threadscan.outstanding ts)))

let test_config_validation () =
  Alcotest.check_raises "bad buffer"
    (Invalid_argument "Threadscan config: buffer_size < 2")
    (fun () -> Config.validate { Config.default with max_threads = 4; buffer_size = 1 });
  Alcotest.check_raises "bad threads"
    (Invalid_argument "Threadscan config: max_threads < 1")
    (fun () -> Config.validate { Config.default with max_threads = 0; buffer_size = 8 })

(* --------------------------- degradation ladder ------------------------- *)

(* Small budgets so the ladder fires inside a unit test.  Takeover and
   backpressure are disabled unless the test is about them, keeping each
   rung observable in isolation. *)
let ladder_ts ?(ack_budget = 2_000) ?(suspect_phases = 2) ?(takeover_steps = 0)
    ?(overflow_after = 0) ?(buffer_size = 8) () =
  Threadscan.create
    ~config:
      {
        Config.max_threads = 16;
        buffer_size;
        ack_budget;
        suspect_phases;
        takeover_steps;
        overflow_after;
      }
    ()

let test_stalled_thread_blinds_phase () =
  (* Rung 1: a frozen registered thread cannot ack, so the phase exhausts
     its ack budget, goes blind and frees nothing — including the node the
     frozen thread still holds.  On wake-up everything reclaims. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = ladder_ts () in
         let smr = Threadscan.smr ts in
         let stop = Runtime.alloc_region 1 and grabbed = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 999;
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   Frame.set fr 0 p;
                   Runtime.write grabbed 1;
                   while Runtime.read stop = 0 do
                     Runtime.advance 10
                   done;
                   Frame.set fr 0 0);
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         Runtime.stall ~cycles:100_000 w;
         smr.Smr.retire p;
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "phase ran" true (Threadscan.phases ts >= 1);
         Alcotest.(check bool) "ack wait timed out" true (Threadscan.ack_timeouts ts >= 1);
         Alcotest.(check bool) "blind phase carried everything it aggregated" true
           (Threadscan.carried_blind ts >= 8);
         check "nothing freed blind" 0 (Smr.freed smr);
         check "held node untouched" 999 (Runtime.read (Ptr.addr p));
         (* wake it up: the pending signal delivers, it acks, and exits *)
         Runtime.advance 120_000;
         Runtime.write stop 1;
         Runtime.join w;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all reclaimed after recovery" 0 (Threadscan.outstanding ts)))

let test_suspect_proxy_scanned_then_recovers () =
  (* Rung 2: after a blind phase the non-acker is a suspect; later phases
     skip signaling it and proxy-scan its frozen stack instead, so garbage
     is freed while its held node is carried.  When it wakes and acks, it
     is cleared as a recovery. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = ladder_ts ~suspect_phases:50 () in
         let smr = Threadscan.smr ts in
         let stop = Runtime.alloc_region 1 and grabbed = Runtime.alloc_region 1 in
         let noise = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let p = alloc_node () in
         Runtime.write (Ptr.addr p) 424;
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   Frame.set fr 0 p;
                   Runtime.write grabbed 1;
                   while Runtime.read stop = 0 do
                     Runtime.advance 10
                   done;
                   Frame.set fr 0 0);
               smr.Smr.thread_exit ())
         in
         while Runtime.read grabbed = 0 do
           Runtime.yield ()
         done;
         Runtime.stall ~cycles:400_000 w;
         (* phase 1: blind, w becomes suspect *)
         smr.Smr.retire p;
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "suspected" true (Threadscan.suspected_total ts >= 1);
         (* phase 2: w is a frozen suspect — proxy-scanned, phase not blind *)
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ());
           for _ = 1 to 40 do
             ignore (Runtime.read noise)
           done
         done;
         Alcotest.(check bool) "proxy scans ran" true (Threadscan.proxy_scans ts >= 1);
         Alcotest.(check bool) "garbage freed despite the suspect" true
           (Smr.freed smr > 0);
         check "proxied stack still pins the node" 424 (Runtime.read (Ptr.addr p));
         (* wake: the pending signal delivers and w acks again *)
         Runtime.advance 500_000;
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ());
           for _ = 1 to 40 do
             ignore (Runtime.read noise)
           done
         done;
         Alcotest.(check bool) "recovery observed" true (Threadscan.recoveries ts >= 1);
         Runtime.write stop 1;
         Runtime.join w;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all reclaimed in the end" 0 (Threadscan.outstanding ts)))

let test_crashed_thread_reaped_buffer_freed () =
  (* Rung 3: a thread that crashes while registered can never ack or
     deregister.  The next phase observes it dead, reaps it, adopts its
     buffered retirements through the normal aggregation path, and frees
     them — a crashed thread's pins are dropped. *)
  let leftover = ref (-1) and reaps = ref 0 and retired = ref 0 and freed = ref 0 in
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let ts = ladder_ts () in
         let smr = Threadscan.smr ts in
         let parked = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               (* three retirements that stay in its SRSW buffer *)
               for _ = 1 to 3 do
                 smr.Smr.retire (alloc_node ())
               done;
               Runtime.write parked 1;
               while true do
                 Runtime.advance 10
               done)
         in
         while Runtime.read parked = 0 do
           Runtime.yield ()
         done;
         Runtime.crash w;
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ());
           for _ = 1 to 40 do
             ignore (Runtime.read noise)
           done
         done;
         reaps := Threadscan.reaps ts;
         Runtime.join w;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         retired := Smr.retired smr;
         freed := Smr.freed smr;
         leftover := Threadscan.outstanding ts));
  ignore (Runtime.start r);
  check "reaped exactly once" 1 !reaps;
  check "all 15 retirements accounted" 15 !retired;
  check "all freed, including the dead thread's buffer" 15 !freed;
  check "nothing outstanding" 0 !leftover;
  check "allocator empty" 0 (Alloc.live_blocks (Runtime.alloc r))

let test_takeover_after_reclaimer_crash () =
  (* Rung 4: the reclaimer crashes inside a phase, holding the phase lock.
     A retiring thread watches the heartbeat go silent, wrests the lock,
     bumps the generation and completes reclamation. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = ladder_ts ~takeover_steps:500 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Threadscan.set_inject ts Threadscan.Crash_mid_phase;
               (* the ninth retire starts a phase; the injection kills the
                  reclaimer mid-phase with the lock held *)
               for _ = 1 to 9 do
                 smr.Smr.retire (alloc_node ())
               done)
         in
         Runtime.join w;
         Alcotest.(check bool) "reclaimer died mid-phase" true (Runtime.is_crashed w);
         (* our own retires run into the dead holder and must take over *)
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "lock wrested from the corpse" true (Threadscan.takeovers ts >= 1);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         (* the reclaimer died inside [retire], before its in-flight ninth
            pointer was pushed anywhere: a bounded 1-node leak (never a
            UAF) — the same budget the checker's oracle allows per crash *)
         check "only the in-flight retirement leaks" 1 (Threadscan.outstanding ts)))

let test_overflow_backpressure_bounded () =
  (* Rung 5: with the reclaimer dead and the lock held, a full-buffered
     retirer does not block forever: past [overflow_after] wait rounds it
     parks the pointer on the shared overflow list, which the next live
     phase (here: the flush takeover) adopts and frees. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = ladder_ts ~takeover_steps:2_000 ~overflow_after:4 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Threadscan.set_inject ts Threadscan.Crash_mid_phase;
               for _ = 1 to 9 do
                 smr.Smr.retire (alloc_node ())
               done)
         in
         Runtime.join w;
         (* fill our buffer, then keep retiring against the dead holder:
            backpressure must park instead of spinning forever *)
         let before = Threadscan.overflow_pushes ts in
         for _ = 1 to 12 do
           smr.Smr.retire (alloc_node ())
         done;
         Alcotest.(check bool) "retirements parked under backpressure" true
           (Threadscan.overflow_pushes ts > before);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         (* 1 = the crashed reclaimer's in-flight retirement, as above *)
         check "parked retirements adopted and freed" 1 (Threadscan.outstanding ts)))

let test_thread_exit_races_inflight_collect () =
  (* A registered thread deregisters while a collect phase is mid-flight
     and its signal is still undelivered (delayed in the signal queue).
     The ack wait must release via the registration check — not the
     timeout — and the phase completes normally. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 () in
         let smr = Threadscan.smr ts in
         let ready = Runtime.alloc_region 1 in
         smr.Smr.thread_init ();
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               Runtime.write ready 1;
               (* leave the instant a collect is in flight *)
               while Threadscan.phases ts = 0 do
                 Runtime.advance 5
               done;
               smr.Smr.thread_exit ())
         in
         while Runtime.read ready = 0 do
           Runtime.yield ()
         done;
         (* its signal will hang in the air long past its exit *)
         Runtime.delay_signals w 100_000;
         for _ = 1 to 9 do
           smr.Smr.retire (alloc_node ())
         done;
         Runtime.join w;
         check "phase completed" 1 (Threadscan.phases ts);
         check "released by deregistration, not the budget" 0 (Threadscan.ack_timeouts ts);
         check "phase was not blind" 0 (Threadscan.carried_blind ts);
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "clean" 0 (Threadscan.outstanding ts)))

(* ------------------------------ adversarial ----------------------------- *)

let prop_random_hold_release_safe =
  QCheck.Test.make ~name:"random hold/release churn is UAF-free and leak-free" ~count:25
    QCheck.(pair small_nat (int_range 2 6))
    (fun (seed, nthreads) ->
      let r = Runtime.create { cfg with cores = 2; seed } in
      let ok = ref false in
      ignore
        (Runtime.add_thread r (fun () ->
             let ts = small_ts ~buffer_size:8 ~max_threads:(nthreads + 2) () in
             let smr = Threadscan.smr ts in
             let slots = Runtime.alloc_region nthreads in
             smr.Smr.thread_init ();
             let worker i () =
               smr.Smr.thread_init ();
               Frame.with_frame 1 (fun fr ->
                   for _ = 1 to 40 do
                     match Runtime.rand_below 3 with
                     | 0 ->
                         (* publish fresh node *)
                         let old = Runtime.read (slots + i) in
                         let p = alloc_node () in
                         Runtime.write (slots + i) p;
                         if not (Ptr.is_null old) then smr.Smr.retire old
                     | 1 ->
                         (* hold and dereference a random node *)
                         let q = Runtime.read (slots + Runtime.rand_below nthreads) in
                         Frame.set fr 0 q;
                         if not (Ptr.is_null q) then ignore (Runtime.read (Ptr.addr q));
                         Frame.set fr 0 0
                     | _ ->
                         (* unlink + retire own node *)
                         let mine = Runtime.read (slots + i) in
                         Runtime.write (slots + i) 0;
                         if not (Ptr.is_null mine) then smr.Smr.retire mine
                   done);
               (* drop remaining published node *)
               let mine = Runtime.read (slots + i) in
               Runtime.write (slots + i) 0;
               if not (Ptr.is_null mine) then smr.Smr.retire mine;
               smr.Smr.thread_exit ()
             in
             let ws = List.init nthreads (fun i -> Runtime.spawn (worker i)) in
             List.iter Runtime.join ws;
             smr.Smr.thread_exit ();
             smr.Smr.flush ();
             ok := Threadscan.outstanding ts = 0));
      ignore (Runtime.start r);
      !ok && Alloc.live_blocks (Runtime.alloc r) = 0)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "threadscan"
    [
      ( "delete_buffer",
        [
          Alcotest.test_case "push/drain fifo" `Quick test_db_push_drain;
          Alcotest.test_case "full" `Quick test_db_full;
          Alcotest.test_case "wraparound" `Quick test_db_wraparound;
          Alcotest.test_case "partial drain" `Quick test_db_partial_drain;
        ] );
      ( "master_buffer",
        [
          Alcotest.test_case "publish + find" `Quick test_mb_publish_find;
          Alcotest.test_case "mark/sweep/carry" `Quick test_mb_mark_sweep_carry;
          Alcotest.test_case "overflow" `Quick test_mb_overflow;
          Alcotest.test_case "marks reset on publish" `Quick test_mb_marks_reset_on_publish;
          Alcotest.test_case "phases through the ops match their loops" `Quick
            test_master_matches_reference;
        ] );
      ( "single-thread",
        [
          Alcotest.test_case "unreferenced nodes reclaimed" `Quick
            test_unreferenced_nodes_reclaimed;
          Alcotest.test_case "phase on full buffer" `Quick test_phase_triggered_by_full_buffer;
          Alcotest.test_case "stack ref pins" `Quick test_stack_reference_pins_node;
          Alcotest.test_case "popped frame does not pin" `Quick test_popped_frame_does_not_pin;
        ] );
      ( "multi-thread",
        [
          Alcotest.test_case "cross-thread protection" `Quick test_cross_thread_protection;
          Alcotest.test_case "register-only ref protected" `Quick
            test_register_only_reference_protected;
          Alcotest.test_case "8-thread churn" `Quick test_many_threads_churn;
          Alcotest.test_case "deterministic" `Quick test_determinism_with_reclamation;
          Alcotest.test_case "signals scale with threads" `Quick test_signals_scale_with_threads;
          Alcotest.test_case "exit mid-use no deadlock" `Quick
            test_thread_exit_mid_phase_no_deadlock;
        ] );
      ( "heap-blocks",
        [
          Alcotest.test_case "registered block pins" `Quick test_heap_block_extension_pins;
          Alcotest.test_case "unregistered block is unsafe" `Quick
            test_heap_block_without_registration_uaf;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "release frees without flush" `Quick
            test_released_node_freed_without_flush;
          Alcotest.test_case "racing reclaimers serialize" `Quick
            test_racing_reclaimers_serialize;
          Alcotest.test_case "unregistered thread not signaled" `Quick
            test_unregistered_thread_not_signaled;
          Alcotest.test_case "generational churn on one core" `Quick
            test_generational_churn_one_core;
          Alcotest.test_case "false positive pins safely" `Quick
            test_false_positive_pins_but_is_safe;
          Alcotest.test_case "tagged pointer still matches" `Quick
            test_tagged_pointer_still_matches;
          Alcotest.test_case "tagged top entry still matches" `Quick
            test_tagged_top_entry_still_matches;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "stalled thread blinds the phase" `Quick
            test_stalled_thread_blinds_phase;
          Alcotest.test_case "suspect proxy-scanned, then recovers" `Quick
            test_suspect_proxy_scanned_then_recovers;
          Alcotest.test_case "crashed thread reaped, buffer freed" `Quick
            test_crashed_thread_reaped_buffer_freed;
          Alcotest.test_case "takeover after reclaimer crash" `Quick
            test_takeover_after_reclaimer_crash;
          Alcotest.test_case "overflow backpressure is bounded" `Quick
            test_overflow_backpressure_bounded;
          Alcotest.test_case "thread_exit races in-flight collect" `Quick
            test_thread_exit_races_inflight_collect;
        ] );
      ("adversarial", [ qt prop_random_hold_release_safe ]);
    ]
