module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Cost_model = Ts_rt.Cost_model
module Mem = Ts_umem.Mem
module Ptr = Ts_umem.Ptr

let check = Alcotest.(check int)

let cfg = Runtime.default_config

let run ?(config = cfg) f = Runtime.run ~config f

(* ------------------------------ basic runs ------------------------------ *)

let test_empty_main () =
  let r = run (fun () -> ()) in
  Alcotest.(check (list reject)) "no failures" [] (List.map snd r.Runtime.failures)

let test_rw_roundtrip () =
  let out = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 4 in
         Runtime.write a 17;
         Runtime.write (a + 3) 21;
         out := Runtime.read a + Runtime.read (a + 3)));
  check "sum" 38 !out

let test_clock_advances () =
  let t0 = ref 0 and t1 = ref 0 in
  ignore
    (run (fun () ->
         t0 := Runtime.now ();
         let a = Runtime.alloc_region 1 in
         Runtime.write a 1;
         ignore (Runtime.read a);
         t1 := Runtime.now ()));
  Alcotest.(check bool) "time moved" true (!t1 > !t0)

let test_elapsed_cost_model () =
  (* With the uniform cost model every effect is one cycle, so virtual time
     is exactly the operation count. *)
  let config = { cfg with cost = Cost_model.uniform } in
  let r =
    run ~config (fun () ->
        let a = Runtime.alloc_region 1 in
        (* region alloc = 1 cycle, then 5 writes *)
        for i = 1 to 5 do
          Runtime.write a i
        done)
  in
  check "elapsed = 6" 6 r.Runtime.elapsed

let test_cas_semantics () =
  let ok = ref false and ko = ref true and v = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         Runtime.write a 5;
         ok := Runtime.cas a 5 6;
         ko := Runtime.cas a 5 7;
         v := Runtime.read a));
  Alcotest.(check bool) "cas succeeds on match" true !ok;
  Alcotest.(check bool) "cas fails on mismatch" false !ko;
  check "value" 6 !v

let test_faa () =
  let v = ref 0 and old = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         Runtime.write a 10;
         old := Runtime.faa a 5;
         v := Runtime.read a));
  check "faa returns old" 10 !old;
  check "faa adds" 15 !v

(* ------------------------------ determinism ----------------------------- *)

let chaotic_main () =
  let a = Runtime.alloc_region 1 in
  Runtime.write a 0;
  let workers =
    List.init 8 (fun _ ->
        Runtime.spawn (fun () ->
            for _ = 1 to 50 do
              ignore (Runtime.faa a 1);
              if Runtime.rand_below 4 = 0 then Runtime.yield ()
            done))
  in
  List.iter Runtime.join workers

let test_deterministic () =
  let config = { cfg with cores = 3; seed = 99 } in
  let r1 = run ~config chaotic_main in
  let r2 = run ~config chaotic_main in
  check "same elapsed" r1.Runtime.elapsed r2.Runtime.elapsed;
  check "same steps" r1.Runtime.run_stats.steps r2.Runtime.run_stats.steps;
  check "same switches" r1.Runtime.run_stats.ctx_switches r2.Runtime.run_stats.ctx_switches

let test_seed_changes_schedule () =
  (* Different seeds give different thread-local RNG streams, hence
     different yields and different step counts. *)
  let r1 = run ~config:{ cfg with cores = 3; seed = 1 } chaotic_main in
  let r2 = run ~config:{ cfg with cores = 3; seed = 2 } chaotic_main in
  Alcotest.(check bool) "schedules differ" true
    (r1.Runtime.run_stats.steps <> r2.Runtime.run_stats.steps
    || r1.Runtime.elapsed <> r2.Runtime.elapsed)

(* ----------------------------- threads ---------------------------------- *)

let test_spawn_join () =
  let out = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         let t =
           Runtime.spawn (fun () ->
               Runtime.advance 100;
               Runtime.write a 123)
         in
         Runtime.join t;
         out := Runtime.read a));
  check "child ran before join returned" 123 !out

let test_atomic_counter_exact () =
  let out = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         Runtime.write a 0;
         let ts =
           List.init 10 (fun _ ->
               Runtime.spawn (fun () ->
                   for _ = 1 to 100 do
                     ignore (Runtime.faa a 1)
                   done))
         in
         List.iter Runtime.join ts;
         out := Runtime.read a));
  check "atomic increments all land" 1000 !out

let test_unsynchronized_counter_loses () =
  (* Plain read+write increments across threads must interleave and lose
     updates: this pins down that the scheduler really interleaves at
     per-operation granularity. *)
  let out = ref 0 in
  ignore
    (run ~config:{ cfg with seed = 7 } (fun () ->
         let a = Runtime.alloc_region 1 in
         Runtime.write a 0;
         let ts =
           List.init 4 (fun _ ->
               Runtime.spawn (fun () ->
                   for _ = 1 to 200 do
                     let v = Runtime.read a in
                     Runtime.write a (v + 1)
                   done))
         in
         List.iter Runtime.join ts;
         out := Runtime.read a));
  Alcotest.(check bool) "updates lost" true (!out < 800);
  Alcotest.(check bool) "but some landed" true (!out >= 200)

let test_tids_sequential () =
  let tids = ref [] in
  ignore
    (run (fun () ->
         let t1 = Runtime.spawn (fun () -> ()) in
         let t2 = Runtime.spawn (fun () -> ()) in
         tids := [ Runtime.self (); t1; t2 ]));
  Alcotest.(check (list int)) "tids" [ 0; 1; 2 ] !tids

let test_is_done () =
  ignore
    (run (fun () ->
         let t = Runtime.spawn (fun () -> Runtime.advance 10) in
         Alcotest.(check bool) "not done yet" false (Runtime.is_done t);
         Runtime.join t;
         Alcotest.(check bool) "done after join" true (Runtime.is_done t)))

(* ----------------------------- failures --------------------------------- *)

exception Boom

let test_failure_propagates () =
  Alcotest.check_raises "child failure surfaces" (Runtime.Thread_failure (1, Boom)) (fun () ->
      ignore
        (run (fun () ->
             let t = Runtime.spawn (fun () -> raise Boom) in
             Runtime.join t)))

let test_failure_collected () =
  let r =
    run ~config:{ cfg with propagate_failures = false } (fun () ->
        ignore (Runtime.spawn (fun () -> raise Boom)))
  in
  match r.Runtime.failures with
  | [ (1, Boom) ] -> ()
  | _ -> Alcotest.fail "expected one failure from tid 1"

let test_uaf_kills_thread () =
  let saw_fault = ref false in
  (try
     ignore
       (run (fun () ->
            let a = Runtime.malloc 4 in
            Runtime.free a;
            ignore (Runtime.read a)))
   with Runtime.Thread_failure (0, Mem.Fault (Mem.Uaf_read, _)) -> saw_fault := true);
  Alcotest.(check bool) "UAF became a thread failure" true !saw_fault

let test_step_limit () =
  Alcotest.check_raises "livelock caught" Runtime.Step_limit_exceeded (fun () ->
      ignore
        (run ~config:{ cfg with max_steps = 1000 } (fun () ->
             let a = Runtime.alloc_region 1 in
             while Runtime.read a = 0 do
               Runtime.yield ()
             done)))

(* ----------------------------- memory effects --------------------------- *)

let test_malloc_free_effect () =
  let live_during = ref (-1) in
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let a = Runtime.malloc 10 in
         let b = Runtime.malloc 10 in
         live_during := Ts_umem.Alloc.live_blocks (Runtime.alloc r);
         Runtime.free a;
         Runtime.free b));
  ignore (Runtime.start r);
  check "live during" 2 !live_during;
  check "live after" 0 (Ts_umem.Alloc.live_blocks (Runtime.alloc r))

let test_malloc_charges_cycles () =
  let config = { cfg with cost = Cost_model.uniform } in
  let r = run ~config (fun () -> ignore (Runtime.malloc 4)) in
  check "one step, one cycle" 1 r.Runtime.elapsed

(* ----------------------------- frames ----------------------------------- *)

let test_frame_rw () =
  ignore
    (run (fun () ->
         Frame.with_frame 3 (fun fr ->
             Frame.set fr 0 10;
             Frame.set fr 2 30;
             check "slot0" 10 (Frame.get fr 0);
             check "slot1 zeroed" 0 (Frame.get fr 1);
             check "slot2" 30 (Frame.get fr 2))))

let test_frame_nesting () =
  ignore
    (run (fun () ->
         let base0, sp0 = Runtime.stack_range () in
         check "stack empty at start" base0 sp0;
         Frame.with_frame 4 (fun _ ->
             Frame.with_frame 2 (fun _ ->
                 let _, sp = Runtime.stack_range () in
                 check "two frames live" (base0 + 6) sp));
         let _, sp = Runtime.stack_range () in
         check "all popped" base0 sp))

let test_frame_stale_words_linger () =
  (* Popped frames leave their words behind — the conservatism the paper
     relies on and the reason scans use sp as the bound. *)
  ignore
    (run (fun () ->
         let marker = 0xABCDE8 in
         Frame.with_frame 1 (fun fr -> Frame.set fr 0 marker);
         let fr2 = Frame.push 1 in
         check "fresh frame is zeroed" 0 (Frame.get fr2 0);
         Frame.pop fr2))

let test_stack_overflow () =
  let config = { cfg with stack_words = 8 } in
  (try
     ignore
       (run ~config (fun () ->
            ignore (Frame.push 6);
            ignore (Frame.push 6)));
     Alcotest.fail "expected overflow"
   with Runtime.Thread_failure (0, Runtime.Sim_error _) -> ())

let test_register_mirroring () =
  (* A freshly loaded value must be visible in the register file even before
     any explicit stack store: this is what makes values "in flight" visible
     to conservative scans. *)
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         let secret = Ptr.of_addr 424242 in
         Runtime.write a secret;
         let v = Runtime.read a in
         ignore v;
         let base, len = Runtime.reg_range () in
         let found = ref false in
         for i = base to base + len - 1 do
           if Runtime.read i = secret then found := true
         done;
         Alcotest.(check bool) "register file holds the load" true !found))

let test_private_ranges () =
  ignore
    (run (fun () ->
         let blk = Runtime.alloc_region 8 in
         Runtime.add_private_range blk 8;
         let ranges = Runtime.private_ranges () in
         Alcotest.(check bool) "registered" true (List.mem (blk, 8) ranges);
         Runtime.remove_private_range blk 8;
         Alcotest.(check bool) "unregistered" false
           (List.mem (blk, 8) (Runtime.private_ranges ()))))

let test_scan_ranges_of_other () =
  ignore
    (run (fun () ->
         let ready = Runtime.alloc_region 1 in
         let t =
           Runtime.spawn (fun () ->
               Frame.with_frame 4 (fun _ ->
                   Runtime.write ready 1;
                   (* hold the frame until the main thread has looked *)
                   while Runtime.read ready <> 2 do
                     Runtime.yield ()
                   done))
         in
         while Runtime.read ready <> 1 do
           Runtime.yield ()
         done;
         let ranges = Runtime.scan_ranges_of t in
         (* stack (non-empty) + registers at least *)
         Alcotest.(check bool) "at least two ranges" true (List.length ranges >= 2);
         Runtime.write ready 2;
         Runtime.join t))

(* ----------------------------- signals ---------------------------------- *)

let test_signal_basic () =
  let out = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         let hit = Runtime.alloc_region 1 in
         Runtime.write a 0;
         Runtime.write hit 0;
         let t =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () -> Runtime.write hit 1);
               (* spin until signaled *)
               while Runtime.read hit = 0 do
                 Runtime.yield ()
               done)
         in
         Runtime.advance 10;
         Runtime.signal t;
         Runtime.join t;
         out := Runtime.read hit));
  check "handler ran" 1 !out

let test_signal_interrupts_spin () =
  (* The target never yields control voluntarily in terms of checking any
     flag set by others — the handler itself flips its loop variable.
     This is the "isolated from application code" property (§1.2). *)
  let delivered = ref 0 in
  ignore
    (run (fun () ->
         let stop = Runtime.alloc_region 1 in
         let t =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () -> Runtime.write stop 1);
               while Runtime.read stop = 0 do
                 Runtime.advance 5 (* busy loop, no yields *)
               done)
         in
         Runtime.advance 50;
         Runtime.signal t;
         Runtime.join t;
         delivered := 1));
  check "spinner was interrupted" 1 !delivered

let test_signal_nesting () =
  let max_depth = ref 0 in
  ignore
    (run (fun () ->
         let flag = Runtime.alloc_region 1 in
         let depth_cell = Runtime.alloc_region 1 in
         let t =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () ->
                   let d = Runtime.signal_depth () in
                   let m = Runtime.read depth_cell in
                   if d > m then Runtime.write depth_cell d;
                   if d = 1 then begin
                     (* signal ourselves from inside the handler: the second
                        handler must stack on top of the first *)
                     Runtime.signal (Runtime.self ());
                     Runtime.advance 10
                   end
                   else Runtime.write flag 1);
               while Runtime.read flag = 0 do
                 Runtime.yield ()
               done)
         in
         Runtime.advance 10;
         Runtime.signal t;
         Runtime.join t;
         max_depth := Runtime.read depth_cell));
  check "handlers nested" 2 !max_depth

let test_signal_counted () =
  let r =
    run (fun () ->
        let n = Runtime.alloc_region 1 in
        let ts =
          List.init 5 (fun _ ->
              Runtime.spawn (fun () ->
                  Runtime.set_signal_handler (fun () -> ignore (Runtime.faa n 1));
                  while Runtime.read n < 5 do
                    Runtime.yield ()
                  done))
        in
        Runtime.advance 100;
        List.iter Runtime.signal ts;
        List.iter Runtime.join ts)
  in
  check "sent" 5 r.Runtime.run_stats.signals_sent;
  check "delivered" 5 r.Runtime.run_stats.signals_delivered

let test_signal_to_descheduled_thread () =
  (* One core, three threads: the signaled thread is certainly off-core at
     send time; it must still run its handler promptly. *)
  let out = ref 0 in
  ignore
    (run ~config:{ cfg with cores = 1; quantum = 500 } (fun () ->
         let hit = Runtime.alloc_region 1 in
         Runtime.write hit 0;
         let victim =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () -> Runtime.write hit 1);
               while Runtime.read hit = 0 do
                 Runtime.advance 10
               done)
         in
         let _noise =
           Runtime.spawn (fun () ->
               for _ = 1 to 100 do
                 Runtime.advance 100
               done)
         in
         Runtime.advance 2000;
         Runtime.signal victim;
         Runtime.join victim;
         out := Runtime.read hit));
  check "handler ran despite being descheduled" 1 !out

let test_sigreturn_restores_registers () =
  (* a handler's own memory traffic must not clobber the interrupted
     context: sigreturn restores the register file *)
  ignore
    (run (fun () ->
         let secret = Ptr.of_addr 987654 in
         let cell = Runtime.alloc_region 1 in
         let scratch = Runtime.alloc_region 1 in
         let hit = Runtime.alloc_region 1 in
         Runtime.write cell secret;
         let t =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () ->
                   (* churn way past the ring size *)
                   for _ = 1 to 100 do
                     ignore (Runtime.read scratch)
                   done;
                   Runtime.write hit 1);
               let v = Runtime.read cell in
               ignore v;
               while Runtime.read hit = 0 do
                 Runtime.advance 5
               done;
               (* after the handler, the pre-signal load must still be in
                  the live register file *)
               let base, len = Runtime.reg_range () in
               let found = ref false in
               for i = base to base + len - 1 do
                 if Runtime.read i = secret then found := true
               done;
               Alcotest.(check bool) "register context restored" true !found)
         in
         Runtime.advance 50;
         Runtime.signal t;
         Runtime.join t))

let test_clear_regs () =
  ignore
    (run (fun () ->
         let cell = Runtime.alloc_region 1 in
         Runtime.write cell 123456;
         ignore (Runtime.read cell);
         Runtime.clear_regs ();
         let base, len = Runtime.reg_range () in
         for i = base to base + len - 1 do
           check "wiped" 0 (Runtime.read i)
         done))

let test_signal_finished_thread () =
  let r =
    run (fun () ->
        let t = Runtime.spawn (fun () -> ()) in
        Runtime.join t;
        Runtime.signal t (* must be a harmless no-op *))
  in
  check "sent but never delivered" 1 r.Runtime.run_stats.signals_sent;
  check "no delivery" 0 r.Runtime.run_stats.signals_delivered

let test_frame_pops_on_exception () =
  ignore
    (run (fun () ->
         let base0, _ = Runtime.stack_range () in
         (try Frame.with_frame 8 (fun _ -> failwith "inner") with Failure _ -> ());
         let _, sp = Runtime.stack_range () in
         check "unwound" base0 sp))

let test_advance_negative_clamped () =
  let config = { cfg with cost = Cost_model.uniform } in
  let r =
    run ~config (fun () ->
        Runtime.advance (-100);
        Runtime.advance 3)
  in
  check "only the positive advance counted" 3 r.Runtime.elapsed

let test_per_thread_rng_streams_differ () =
  let streams = ref [] in
  ignore
    (run (fun () ->
         let collect () =
           let v = List.init 8 (fun _ -> Runtime.rand_below 1000) in
           streams := v :: !streams
         in
         let a = Runtime.spawn collect and b = Runtime.spawn collect in
         Runtime.join a;
         Runtime.join b));
  match !streams with
  | [ s1; s2 ] -> Alcotest.(check bool) "independent streams" true (s1 <> s2)
  | _ -> Alcotest.fail "expected two streams"

(* -------------------------------- tracing ------------------------------- *)

let test_trace_records_lifecycle_and_signals () =
  let record, entries = Ts_sim.Trace.recorder () in
  ignore
    (run ~config:{ cfg with trace = Some record } (fun () ->
         let hit = Runtime.alloc_region 1 in
         let t =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () -> Runtime.write hit 1);
               while Runtime.read hit = 0 do
                 Runtime.yield ()
               done)
         in
         Runtime.signal t;
         Runtime.join t));
  let es = List.map (fun e -> e.Ts_sim.Trace.event) (entries ()) in
  let has p = List.exists p es in
  Alcotest.(check bool) "main started" true
    (has (function Ts_sim.Trace.Thread_started { tid = 0 } -> true | _ -> false));
  Alcotest.(check bool) "signal send recorded" true
    (has (function Ts_sim.Trace.Signal_sent { sender = 0; target = 1 } -> true | _ -> false));
  Alcotest.(check bool) "handler entry recorded" true
    (has (function Ts_sim.Trace.Signal_delivered { tid = 1; depth = 1 } -> true | _ -> false));
  Alcotest.(check bool) "handler return recorded" true
    (has (function Ts_sim.Trace.Signal_returned { tid = 1 } -> true | _ -> false));
  Alcotest.(check bool) "finish recorded" true
    (has (function Ts_sim.Trace.Thread_finished { tid = 1 } -> true | _ -> false))

let test_trace_deterministic () =
  let capture () =
    let record, entries = Ts_sim.Trace.recorder () in
    ignore
      (run ~config:{ cfg with cores = 2; seed = 4; trace = Some record } chaotic_main);
    entries ()
  in
  Alcotest.(check int) "identical traces" (List.length (capture ())) (List.length (capture ()))

(* ------------------------- memory-model litmus -------------------------- *)

(* The simulator promises sequential consistency (DESIGN.md): classic
   relaxed-memory litmus outcomes must be unobservable under any seed. *)

let litmus_store_buffering =
  QCheck.Test.make ~name:"litmus SB: both threads reading 0 is forbidden" ~count:100
    QCheck.small_nat
    (fun seed ->
      let r0 = ref (-1) and r1 = ref (-1) in
      ignore
        (run ~config:{ cfg with seed; cores = 2 } (fun () ->
             let x = Runtime.alloc_region 1 and y = Runtime.alloc_region 1 in
             let a =
               Runtime.spawn (fun () ->
                   Runtime.write x 1;
                   r0 := Runtime.read y)
             in
             let b =
               Runtime.spawn (fun () ->
                   Runtime.write y 1;
                   r1 := Runtime.read x)
             in
             Runtime.join a;
             Runtime.join b));
      not (!r0 = 0 && !r1 = 0))

let litmus_message_passing =
  QCheck.Test.make ~name:"litmus MP: flag=1 implies data visible" ~count:100 QCheck.small_nat
    (fun seed ->
      let flag_seen = ref false and data_seen = ref (-1) in
      ignore
        (run ~config:{ cfg with seed; cores = 2 } (fun () ->
             let data = Runtime.alloc_region 1 and flag = Runtime.alloc_region 1 in
             let producer =
               Runtime.spawn (fun () ->
                   Runtime.write data 42;
                   Runtime.write flag 1)
             in
             let consumer =
               Runtime.spawn (fun () ->
                   if Runtime.read flag = 1 then begin
                     flag_seen := true;
                     data_seen := Runtime.read data
                   end)
             in
             Runtime.join producer;
             Runtime.join consumer));
      (not !flag_seen) || !data_seen = 42)

let litmus_coherence =
  QCheck.Test.make ~name:"litmus CoRR: reads of one location never go backwards" ~count:100
    QCheck.small_nat
    (fun seed ->
      let ok = ref true in
      ignore
        (run ~config:{ cfg with seed; cores = 3 } (fun () ->
             let x = Runtime.alloc_region 1 in
             let writer =
               Runtime.spawn (fun () ->
                   for v = 1 to 20 do
                     Runtime.write x v
                   done)
             in
             let reader () =
               let last = ref 0 in
               for _ = 1 to 30 do
                 let v = Runtime.read x in
                 if v < !last then ok := false;
                 last := v
               done
             in
             let r1 = Runtime.spawn reader and r2 = Runtime.spawn reader in
             Runtime.join writer;
             Runtime.join r1;
             Runtime.join r2));
      !ok)

(* --------------------------- core multiplexing -------------------------- *)

let test_single_core_fairness () =
  (* Two busy threads on one core must both make progress thanks to the
     quantum. *)
  let a_count = ref 0 and b_count = ref 0 in
  ignore
    (run ~config:{ cfg with cores = 1; quantum = 1000 } (fun () ->
         let ca = Runtime.alloc_region 1 and cb = Runtime.alloc_region 1 in
         let ta =
           Runtime.spawn (fun () ->
               for _ = 1 to 300 do
                 ignore (Runtime.faa ca 1)
               done)
         in
         let tb =
           Runtime.spawn (fun () ->
               for _ = 1 to 300 do
                 ignore (Runtime.faa cb 1)
               done)
         in
         Runtime.join ta;
         Runtime.join tb;
         a_count := Runtime.read ca;
         b_count := Runtime.read cb));
  check "A finished" 300 !a_count;
  check "B finished" 300 !b_count

let test_context_switches_counted () =
  let r =
    run ~config:{ cfg with cores = 1; quantum = 500 } (fun () ->
        let ts =
          List.init 4 (fun _ ->
              Runtime.spawn (fun () ->
                  for _ = 1 to 100 do
                    Runtime.advance 50
                  done))
        in
        List.iter Runtime.join ts)
  in
  Alcotest.(check bool) "oversubscription forces switches" true
    (r.Runtime.run_stats.ctx_switches > 4)

let test_unlimited_cores_no_switches () =
  let r =
    run (fun () ->
        let ts =
          List.init 4 (fun _ ->
              Runtime.spawn (fun () ->
                  for _ = 1 to 100 do
                    Runtime.advance 50
                  done))
        in
        List.iter Runtime.join ts)
  in
  check "no switches when every thread has a core" 0 r.Runtime.run_stats.ctx_switches

let test_oversubscription_slower () =
  let work () =
    let ts =
      List.init 8 (fun _ ->
          Runtime.spawn (fun () ->
              for _ = 1 to 200 do
                Runtime.advance 100
              done))
    in
    List.iter Runtime.join ts
  in
  let free_run = run work in
  let packed = run ~config:{ cfg with cores = 2; quantum = 2000 } work in
  Alcotest.(check bool) "2 cores slower than 8"
    true
    (packed.Runtime.elapsed > free_run.Runtime.elapsed)

(* --------------------------- fault injection ---------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_crash_kills_thread () =
  let progress = ref (-1) and crashed_seen = ref false and done_seen = ref false in
  let r =
    run (fun () ->
        let a = Runtime.alloc_region 1 in
        let w =
          Runtime.spawn (fun () ->
              while true do
                Runtime.write a (Runtime.read a + 1)
              done)
        in
        for _ = 1 to 50 do
          Runtime.yield ()
        done;
        Runtime.crash w;
        crashed_seen := Runtime.is_crashed w;
        done_seen := Runtime.is_done w;
        let v = Runtime.read a in
        for _ = 1 to 50 do
          Runtime.yield ()
        done;
        progress := Runtime.read a - v;
        Runtime.join w (* joining a crashed thread must not hang *))
  in
  Alcotest.(check bool) "is_crashed" true !crashed_seen;
  Alcotest.(check bool) "is_done" true !done_seen;
  check "no further progress" 0 !progress;
  check "one crash counted" 1 r.Runtime.run_stats.crashes

let test_crash_self_never_returns () =
  let before = ref false and after = ref false in
  ignore
    (run (fun () ->
         let w =
           Runtime.spawn (fun () ->
               before := true;
               Runtime.crash (Runtime.self ());
               after := true)
         in
         Runtime.join w));
  Alcotest.(check bool) "ran up to the crash" true !before;
  Alcotest.(check bool) "nothing after the crash" false !after

let test_crash_preserves_memory () =
  (* A crashed thread's heap writes stay visible: it died, its memory did
     not — this is what the reclaimer's proxy machinery relies on. *)
  let out = ref 0 in
  ignore
    (run (fun () ->
         let a = Runtime.alloc_region 1 in
         let ready = Runtime.alloc_region 1 in
         let w =
           Runtime.spawn (fun () ->
               Runtime.write a 77;
               Runtime.write ready 1;
               while true do
                 Runtime.advance 10
               done)
         in
         while Runtime.read ready = 0 do
           Runtime.yield ()
         done;
         Runtime.crash w;
         out := Runtime.read a));
  check "write survives its writer" 77 !out

let test_stall_freezes_then_recovers () =
  let finished = ref false and observed = ref false and frozen = ref false in
  let r =
    run (fun () ->
        let w =
          Runtime.spawn (fun () ->
              for _ = 1 to 20 do
                Runtime.advance 10
              done;
              finished := true)
        in
        Runtime.stall ~cycles:5_000 w;
        observed := Runtime.is_stalled w;
        (* a frozen thread's clock cannot move while we watch *)
        let c0 = Runtime.clock_of w in
        Runtime.advance 100;
        frozen := Runtime.clock_of w = c0 && Runtime.is_stalled w;
        Runtime.join w)
  in
  Alcotest.(check bool) "stalled when observed" true !observed;
  Alcotest.(check bool) "clock frozen while stalled" true !frozen;
  Alcotest.(check bool) "finished after waking" true !finished;
  check "one stall counted" 1 r.Runtime.run_stats.stalls

let test_stall_wakes_by_time_jump () =
  (* When everything else is done, virtual time jumps to the stalled
     thread's wake-up instead of deadlocking. *)
  let r =
    run (fun () ->
        let stop = Runtime.alloc_region 1 in
        let w =
          Runtime.spawn (fun () ->
              while Runtime.read stop = 0 do
                Runtime.advance 10
              done)
        in
        Runtime.advance 10;
        Runtime.stall ~cycles:50_000 w;
        Runtime.write stop 1;
        Runtime.join w)
  in
  Alcotest.(check bool) "run waited for the wake-up" true (r.Runtime.elapsed >= 50_000)

let test_stall_forever_abandoned () =
  let r =
    run (fun () ->
        let w =
          Runtime.spawn (fun () ->
              while true do
                Runtime.advance 10
              done)
        in
        Runtime.advance 50;
        Runtime.stall w)
  in
  Alcotest.(check (list int)) "worker reported abandoned" [ 1 ] r.Runtime.abandoned;
  check "stall counted" 1 r.Runtime.run_stats.stalls

let test_blocked_summary_diagnostics () =
  (* Post-mortem: the blocked-state report names the thread, its stall
     state, its wait note, and any signal still pending on it. *)
  let rt = Runtime.create cfg in
  ignore
    (Runtime.add_thread rt (fun () ->
         let w =
           Runtime.spawn (fun () ->
               Runtime.set_wait_note (Some (fun () -> "waiting for godot"));
               while true do
                 Runtime.advance 10
               done)
         in
         Runtime.advance 50;
         Runtime.stall w;
         Runtime.signal w));
  let r = Runtime.start rt in
  Alcotest.(check (list int)) "abandoned" [ 1 ] r.Runtime.abandoned;
  let s = Runtime.blocked_summary rt in
  let has needle = contains s needle in
  Alcotest.(check bool) "names the thread" true (has "t1");
  Alcotest.(check bool) "reports the stall" true (has "stalled forever");
  Alcotest.(check bool) "shows the wait note" true (has "waiting for godot");
  Alcotest.(check bool) "shows the pending signal" true (has "1 pending signal")

let test_signal_pends_through_stall () =
  let hits = ref 0 and during = ref (-1) in
  ignore
    (run (fun () ->
         let ready = Runtime.alloc_region 1 and stop = Runtime.alloc_region 1 in
         let w =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () -> incr hits);
               Runtime.write ready 1;
               while Runtime.read stop = 0 do
                 Runtime.advance 10
               done)
         in
         while Runtime.read ready = 0 do
           Runtime.yield ()
         done;
         Runtime.stall ~cycles:2_000 w;
         Runtime.signal w;
         during := !hits;
         Runtime.write stop 1;
         Runtime.join w));
  check "not delivered while frozen" 0 !during;
  check "delivered on wake" 1 !hits

let test_delay_signals () =
  let at_send = ref 0 and at_delivery = ref 0 in
  ignore
    (run (fun () ->
         let ready = Runtime.alloc_region 1 and hit = Runtime.alloc_region 1 in
         let w =
           Runtime.spawn (fun () ->
               Runtime.set_signal_handler (fun () ->
                   at_delivery := Runtime.now ();
                   Runtime.write hit 1);
               Runtime.write ready 1;
               while Runtime.read hit = 0 do
                 Runtime.advance 10
               done)
         in
         while Runtime.read ready = 0 do
           Runtime.yield ()
         done;
         Runtime.delay_signals w 2_000;
         at_send := Runtime.now ();
         Runtime.signal w;
         Runtime.join w));
  Alcotest.(check bool) "delivered, but 2000+ cycles late" true
    (!at_delivery >= !at_send + 2_000)

let test_drop_signals () =
  let hits = ref 0 in
  let r =
    run (fun () ->
        let ready = Runtime.alloc_region 1 and stop = Runtime.alloc_region 1 in
        let w =
          Runtime.spawn (fun () ->
              Runtime.set_signal_handler (fun () -> incr hits);
              Runtime.write ready 1;
              while Runtime.read stop = 0 do
                Runtime.advance 10
              done)
        in
        while Runtime.read ready = 0 do
          Runtime.yield ()
        done;
        Runtime.drop_signals w 1;
        Runtime.signal w (* eaten *);
        Runtime.signal w (* delivered *);
        while !hits = 0 do
          Runtime.advance 10
        done;
        Runtime.write stop 1;
        Runtime.join w)
  in
  check "exactly one delivery" 1 !hits;
  check "drop counted" 1 r.Runtime.run_stats.signals_dropped;
  check "both sends counted" 2 r.Runtime.run_stats.signals_sent

(* Another thread crashing or stalling in the middle of a step removes it
   from the active heap while the stepped thread's clock has already moved
   on.  Every thread is aligned on one clock, so the removal's sift meets
   ties; the logs (one digit per worker iteration) pin the exact schedule
   under each policy. *)
let test_mid_step_removal_schedule () =
  let schedule sched seed =
    let log = Buffer.create 64 in
    let align () = Runtime.advance (20_000 - Runtime.now ()) in
    ignore
      (run ~config:{ cfg with sched; seed } (fun () ->
           let workers =
             List.init 7 (fun _ ->
                 Runtime.spawn (fun () ->
                     align ();
                     for _ = 1 to 10 do
                       Buffer.add_char log (Char.chr (Char.code '0' + Runtime.self ()));
                       Runtime.yield ()
                     done))
           in
           align ();
           List.iteri
             (fun i w ->
               Runtime.yield ();
               if i mod 2 = 0 then Runtime.crash w else Runtime.stall ~cycles:300 w)
             workers;
           List.iter Runtime.join workers));
    Buffer.contents log
  in
  let check_log name expected got = Alcotest.(check string) name expected got in
  check_log "timed" "1234567234567234567345674567567677222424246246246"
    (schedule Runtime.Timed 0);
  check_log "uniform" "454235145326346473653645347675477222646426662222"
    (schedule Runtime.Uniform 2);
  check_log "pct" "5136724536725367456745676772242426426426426424"
    (schedule (Runtime.Pct { change_points = 3; expected_steps = 200 }) 0)

(* A step whose op picks the calling thread again returns in place; every
   other outcome hands the step back to the scheduler loop.  One run per
   policy crosses each of those outcomes: signal delivery (to the sender
   itself, and once delayed), a neutralize abort, an op that raises,
   yields and quantum deschedules on 2 cores, a crash and a stall at fixed
   steps, PCT change points, and the step limit that ends the run.  A log
   is the run's trace, one token and its time per event: a schedule that
   moves changes it. *)
let fallback_schedule sched seed =
  let log = Buffer.create 1024 in
  let token { Ts_sim.Trace.time; event } =
    let p fmt = Printf.bprintf log fmt in
    (match event with
    | Ts_sim.Trace.Thread_started { tid } -> p "S%d" tid
    | Thread_finished { tid } -> p "F%d" tid
    | Scheduled { tid } -> p "+%d" tid
    | Descheduled { tid } -> p "-%d" tid
    | Signal_sent { sender; target } -> p "%d>%d" sender target
    | Signal_delivered { tid; depth } -> p "D%d.%d" tid depth
    | Signal_returned { tid } -> p "R%d" tid
    | Priority_changed { tid; _ } -> p "P%d" tid
    | Crashed { tid } -> p "X%d" tid
    | Stalled { tid; _ } -> p "Z%d" tid
    | Recovered { tid } -> p "W%d" tid
    | Signal_dropped { sender; target } -> p "%d/%d" sender target
    | Note { tid; msg } -> p "%d:%s" tid msg);
    p "@%d " time
  in
  let config =
    { cfg with sched; seed; cores = 2; quantum = 1000; max_steps = 1000; trace = Some token }
  in
  let outcome =
    match
      Runtime.run ~config (fun () ->
          let a = Runtime.alloc_region 4 in
          let victim =
            Runtime.spawn (fun () ->
                Runtime.set_signal_handler (fun () -> Runtime.neutralize Exit);
                while true do
                  try
                    for i = 0 to 40 do
                      ignore (Runtime.read (a + (i land 3)))
                    done
                  with Exit -> Runtime.note "abort"
                done)
          in
          ignore
            (Runtime.spawn (fun () ->
                 Runtime.set_signal_handler ignore;
                 for i = 1 to max_int do
                   (try Runtime.pop_frame (-1) with Runtime.Sim_error _ -> Runtime.note "raise");
                   (* due at once, at the end of a step that may pick this
                      thread again *)
                   if i <= 3 then Runtime.signal (Runtime.self ());
                   Runtime.yield ()
                 done));
          let spin () =
            while true do
              ignore (Runtime.faa (a + 2) 1)
            done
          in
          let doomed = Runtime.spawn spin and sleeper = Runtime.spawn spin in
          let until n =
            while Runtime.steps_now () < n do
              Runtime.yield ()
            done
          in
          until 150;
          Runtime.signal victim;
          until 300;
          Runtime.crash doomed;
          until 450;
          Runtime.stall ~cycles:3000 sleeper;
          until 600;
          (* due only once the victim's own clock passes it, often in the
             middle of a run of its steps *)
          Runtime.delay_signals victim 300;
          Runtime.signal victim;
          spin ())
    with
    | r -> Printf.sprintf "finished steps=%d" r.Runtime.run_stats.Runtime.steps
    | exception Runtime.Step_limit_exceeded -> "step limit"
  in
  Buffer.contents log ^ outcome

let test_fallback_schedule () =
  let check_log name expected got = Alcotest.(check string) name expected got in
  check_log "timed"
    "S0@0 -0@2060 S1@2060 +0@5060 -0@7060 S2@7060 -1@5071 +0@10060 \
     2:raise@7061 2>2@7461 D2.1@8361 R2@8661 -2@8661 +1@8071 -1@9361 \
     +2@11661 -0@12060 +1@12361 -2@11721 S3@12060 -3@13060 +0@15060 \
     -1@13361 +2@14721 2:raise@14721 2>2@15121 -0@17060 +3@16060 \
     D2.1@16021 R2@16321 -2@16321 +1@16361 -3@17060 S4@17060 -1@17361 \
     +0@20060 -4@18060 +2@19321 -2@19381 +3@20060 0>1@20460 -0@20460 \
     +1@20361 D1.1@21261 -3@21060 +4@21060 R1@21562 -1@21562 +2@22381 \
     -4@22261 +0@23460 2:raise@22381 2>2@22781 D2.1@23681 R2@23981 \
     -2@23981 +3@24060 X3@23461 +1@24562 Z4@23462 0>1@23862 -0@24462 \
     +2@26981 1:abort@24562 D1.1@25762 -1@25763 +0@27462 -2@27041 \
     W4@26981 +1@28763 -0@28462 +2@30041 R1@29063 1:abort@29063 -1@29763 \
     +4@29981 2:raise@30041 -2@30101 +0@31462 -4@30981 +1@32763 -0@32462 \
     +2@33101 2:raise@33101 -2@33161 +4@33981 step limit"
    (fallback_schedule Runtime.Timed 0);
  check_log "uniform"
    "S0@0 -0@2060 S1@2060 +0@5060 -0@7060 S2@7060 2:raise@7061 2>2@7461 \
     D2.1@8361 R2@8661 -2@8661 +0@10060 -0@12060 +2@11661 -2@11721 \
     S3@12060 -3@13060 +0@15060 -0@17060 +2@14721 2:raise@15060 \
     2>2@15460 D2.1@16360 R2@16660 -2@16660 +3@16060 -3@17360 S4@17060 \
     -4@18320 +0@20060 0>1@20460 D1.1@3541 -1@3542 +2@19660 -2@20120 \
     +3@20360 -0@20520 +4@21320 -3@21460 +1@6542 R1@22260 1:abort@22260 \
     -4@22320 +2@23120 2:raise@23120 2>2@23520 D2.1@24420 R2@24720 \
     -2@24720 +0@23520 -0@24480 +3@24460 -3@25460 +4@25320 -4@26420 \
     +2@27720 -2@27780 +0@27480 X3@27721 -0@27781 +4@29420 -1@22960 \
     +2@30780 2:raise@30780 -2@30840 +0@30781 -0@30841 +1@25960 -4@30420 \
     +2@33840 2:raise@33840 -2@33900 +0@33841 -0@33901 +4@33420 -4@34841 \
     +2@36900 2:raise@36900 -2@36960 +0@36901 Z4@36902 -0@36962 +2@39960 \
     W4@39960 2:raise@39960 -2@40020 +0@39962 -0@40022 +4@42960 -4@43960 \
     +2@43020 2:raise@43920 -2@43980 +0@43022 -0@43980 +4@46960 -4@47960 \
     +2@46980 2:raise@47920 -1@31781 +0@46980 -2@47980 +4@50960 -0@47980 \
     +1@34781 -4@51960 +2@50980 2:raise@51920 -2@51980 +0@50980 \
     0>1@52320 -0@52920 +4@54960 -4@55960 +2@54980 2:raise@55920 \
     -2@55980 +0@55920 -1@51960 +4@58960 -0@56920 +2@58980 2:raise@59040 \
     -2@59100 +1@54960 D1.1@59980 R1@60281 -1@60281 +0@59920 -4@59960 \
     +2@62100 2:raise@62100 -2@62160 +1@63281 1:abort@63281 -0@60981 \
     +4@62960 -4@64421 +2@65160 2:raise@65160 -2@65220 +0@63981 -0@66160 \
     +4@67421 -4@68421 +2@68220 step limit"
    (fallback_schedule Runtime.Uniform 5);
  check_log "pct"
    "S0@0 -0@2060 S1@2060 +0@5060 P1@3941 -0@7060 S2@7060 2:raise@7061 \
     2>2@7461 D2.1@8361 R2@8661 -2@8661 +0@10060 -0@12060 +2@11661 \
     -2@11721 S3@12060 -3@13060 +0@15060 -0@17060 +2@14721 -1@3961 \
     +3@16060 -3@17060 S4@17060 -4@18060 +0@20060 0>1@20460 -0@20460 \
     +1@6961 D1.1@20960 R1@21261 -1@21261 +3@20060 -3@21961 +4@21060 \
     -4@22921 +0@23460 X3@23461 -0@23521 +1@24261 1:abort@24261 -1@25261 \
     +4@25921 -4@26921 +0@26521 2:raise@15060 2>2@15460 D2.1@16360 \
     R2@16660 -2@16660 +1@28261 -1@29261 +4@29921 -4@30921 +2@19660 \
     -2@30941 +1@32261 -1@33261 +4@33921 -4@34921 +2@33941 Z4@26882 \
     0>1@27282 -0@27282 +1@36261 D1.1@37161 R1@37462 -1@37462 +0@30282 \
     W4@37922 -0@38162 +1@40462 1:abort@40462 P1@40482 2:raise@34881 \
     2>2@35281 D2.1@36181 R2@36481 -2@36481 +4@40922 -4@41922 +0@41162 \
     -0@42882 +2@39481 -2@42902 +4@44922 -4@45922 +0@45882 -0@46882 \
     +2@45902 P1@41042 2:raise@46842 -2@46902 +4@48922 P4@49202 -1@41462 \
     +0@49882 -0@50882 +2@49902 2:raise@50842 -2@50902 +1@44462 step \
     limit"
    (fallback_schedule (Runtime.Pct { change_points = 4; expected_steps = 1200 }) 1)

(* ------------------------------ step cost ------------------------------- *)

(* Minor-heap words allocated per scheduler step.  The count is exact for
   a given build, so these bounds (about 10 % above the measured 8.1 and
   5.5) catch any per-step allocation that creeps back in: a closure and
   an option per resumption or a boxed rng state per draw cost 44 and 166
   words on these two runs. *)
let words_per_step config main =
  let w0 = Gc.minor_words () in
  let r = Runtime.run ~config main in
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int r.Runtime.run_stats.Runtime.steps

let check_words name ~bound w =
  if w > bound then Alcotest.failf "%s: %.2f minor words per step, bound %.1f" name w bound

(* 64 threads on 64 cores under the default Timed policy: every step is a
   shared read and a sift of the 64-entry active heap. *)
let test_words_timed_reads () =
  let w =
    words_per_step { cfg with cores = 64 } (fun () ->
        let base = Runtime.malloc 64 in
        let readers =
          List.init 63 (fun _ ->
              Runtime.spawn (fun () ->
                  for i = 0 to 2999 do
                    ignore (Runtime.read (base + (i land 63)))
                  done))
        in
        List.iter Runtime.join readers)
  in
  check_words "64-thread timed read loop" ~bound:9.0 w

(* One worker under Uniform: the joining main thread is picked on about
   half the steps, each a failed join attempt, and every step draws from
   the scheduler's rng. *)
let test_words_uniform_join () =
  let w =
    words_per_step { cfg with sched = Runtime.Uniform } (fun () ->
        let a = Runtime.malloc 4 in
        Runtime.join
          (Runtime.spawn (fun () ->
               for i = 0 to 19_999 do
                 Runtime.write a i
               done)))
  in
  check_words "uniform run with a joining main" ~bound:6.0 w

(* A lone thread: every step picks it again.  Each step cost 8.05 minor
   words while every op went through the effect handler. *)
let test_words_same_thread_reads () =
  let w =
    words_per_step cfg (fun () ->
        let base = Runtime.malloc 64 in
        for i = 0 to 19_999 do
          ignore (Runtime.read (base + (i land 63)))
        done)
  in
  check_words "lone thread read loop" ~bound:1.0 w

let () =
  Alcotest.run "ts_sim"
    [
      ( "basics",
        [
          Alcotest.test_case "empty main" `Quick test_empty_main;
          Alcotest.test_case "read/write" `Quick test_rw_roundtrip;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "uniform cost accounting" `Quick test_elapsed_cost_model;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "faa" `Quick test_faa;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs identical" `Quick test_deterministic;
          Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
        ] );
      ( "threads",
        [
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "atomic counter exact" `Quick test_atomic_counter_exact;
          Alcotest.test_case "unsynchronized counter loses" `Quick
            test_unsynchronized_counter_loses;
          Alcotest.test_case "tids sequential" `Quick test_tids_sequential;
          Alcotest.test_case "is_done" `Quick test_is_done;
        ] );
      ( "failures",
        [
          Alcotest.test_case "propagation" `Quick test_failure_propagates;
          Alcotest.test_case "collection" `Quick test_failure_collected;
          Alcotest.test_case "UAF kills thread" `Quick test_uaf_kills_thread;
          Alcotest.test_case "step limit" `Quick test_step_limit;
        ] );
      ( "memory",
        [
          Alcotest.test_case "malloc/free effects" `Quick test_malloc_free_effect;
          Alcotest.test_case "malloc cycle charge" `Quick test_malloc_charges_cycles;
        ] );
      ( "frames",
        [
          Alcotest.test_case "rw" `Quick test_frame_rw;
          Alcotest.test_case "nesting" `Quick test_frame_nesting;
          Alcotest.test_case "fresh frames zeroed" `Quick test_frame_stale_words_linger;
          Alcotest.test_case "overflow" `Quick test_stack_overflow;
          Alcotest.test_case "register mirroring" `Quick test_register_mirroring;
          Alcotest.test_case "private ranges" `Quick test_private_ranges;
          Alcotest.test_case "scan ranges of another thread" `Quick test_scan_ranges_of_other;
        ] );
      ( "signals",
        [
          Alcotest.test_case "basic delivery" `Quick test_signal_basic;
          Alcotest.test_case "interrupts pure spin" `Quick test_signal_interrupts_spin;
          Alcotest.test_case "nesting" `Quick test_signal_nesting;
          Alcotest.test_case "stats" `Quick test_signal_counted;
          Alcotest.test_case "descheduled target" `Quick test_signal_to_descheduled_thread;
          Alcotest.test_case "sigreturn restores registers" `Quick
            test_sigreturn_restores_registers;
          Alcotest.test_case "signal to finished thread" `Quick test_signal_finished_thread;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash kills a thread" `Quick test_crash_kills_thread;
          Alcotest.test_case "self-crash never returns" `Quick test_crash_self_never_returns;
          Alcotest.test_case "crash preserves memory" `Quick test_crash_preserves_memory;
          Alcotest.test_case "stall freezes then recovers" `Quick
            test_stall_freezes_then_recovers;
          Alcotest.test_case "stall wakes by time jump" `Quick test_stall_wakes_by_time_jump;
          Alcotest.test_case "stall forever is abandoned" `Quick test_stall_forever_abandoned;
          Alcotest.test_case "blocked summary diagnostics" `Quick
            test_blocked_summary_diagnostics;
          Alcotest.test_case "signal pends through stall" `Quick test_signal_pends_through_stall;
          Alcotest.test_case "delayed signal delivery" `Quick test_delay_signals;
          Alcotest.test_case "dropped signals" `Quick test_drop_signals;
          Alcotest.test_case "mid-step removal keeps the schedule" `Quick
            test_mid_step_removal_schedule;
          Alcotest.test_case "every switch outcome keeps the schedule" `Quick
            test_fallback_schedule;
        ] );
      ( "trace",
        [
          Alcotest.test_case "lifecycle + signals" `Quick
            test_trace_records_lifecycle_and_signals;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
        ] );
      ( "litmus",
        [
          QCheck_alcotest.to_alcotest litmus_store_buffering;
          QCheck_alcotest.to_alcotest litmus_message_passing;
          QCheck_alcotest.to_alcotest litmus_coherence;
        ] );
      ( "misc",
        [
          Alcotest.test_case "clear_regs" `Quick test_clear_regs;
          Alcotest.test_case "frame pops on exception" `Quick test_frame_pops_on_exception;
          Alcotest.test_case "advance clamps negatives" `Quick test_advance_negative_clamped;
          Alcotest.test_case "per-thread rng streams" `Quick test_per_thread_rng_streams_differ;
        ] );
      ( "cores",
        [
          Alcotest.test_case "single-core fairness" `Quick test_single_core_fairness;
          Alcotest.test_case "switches counted" `Quick test_context_switches_counted;
          Alcotest.test_case "no switches undersubscribed" `Quick
            test_unlimited_cores_no_switches;
          Alcotest.test_case "oversubscription is slower" `Quick test_oversubscription_slower;
        ] );
      ( "step-cost",
        [
          Alcotest.test_case "timed read loop words per step" `Quick test_words_timed_reads;
          Alcotest.test_case "uniform join words per step" `Quick test_words_uniform_join;
          Alcotest.test_case "same-thread read loop words per step" `Quick
            test_words_same_thread_reads;
        ] );
    ]
