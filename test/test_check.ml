(* The systematic concurrency checker (lib/check), checked.

   Layers under test:
   - the delete-buffer capacity boundary and the exact retire counts at
     which collect phases trigger (full/empty wrap of the SRSW ring);
   - the §4.3 heap-block extension (registered blocks pin, deregistered
     blocks release);
   - the PCT priority scheduler (determinism, both orders reachable,
     liveness of yielding spin loops, change-point trace events);
   - the linearizability checker on hand-crafted histories;
   - the heap sanitizer (canaries, allocation generations, fault context);
   - the explorer end-to-end: clean sweeps stay clean, seeded protocol
     bugs are caught and shrink to a replayable spec. *)

module Runtime = Ts_sim.Runtime
module Trace = Ts_sim.Trace
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr
module Backoff = Ts_sync.Backoff
module Config = Threadscan.Config
module Delete_buffer = Threadscan.Delete_buffer
module Fault_plan = Ts_util.Fault_plan
module Set_intf = Ts_ds.Set_intf
module Scenario = Ts_check.Scenario
module Explore = Ts_check.Explore
module Linearize = Ts_check.Linearize
module Sanitize = Ts_check.Sanitize
module Report = Ts_check.Report

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let cfg = Runtime.default_config

let small_ts ?(buffer_size = 8) ?(max_threads = 16) () =
  Threadscan.create ~config:{ Config.default with max_threads; buffer_size } ()

let alloc_node () = Ptr.of_addr (Runtime.malloc 3)

(* --------------------- delete-buffer capacity boundary ------------------- *)

let test_db_exact_capacity_wrap () =
  (* Exactly [capacity] pushes succeed, the next fails without storing, and
     the pattern survives several full/empty wraps of the monotone
     head/tail counters. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let cap = 4 in
         let b = Delete_buffer.create ~capacity:cap in
         for round = 0 to 2 do
           for i = 0 to cap - 1 do
             check_bool "push below capacity" true (Delete_buffer.push b ((10 * round) + i))
           done;
           check "exactly full" cap (Delete_buffer.size b);
           check_bool "push at capacity fails" false (Delete_buffer.push b 999);
           check "failed push stored nothing" cap (Delete_buffer.size b);
           let got = ref [] in
           Delete_buffer.drain b (fun p ->
               got := p :: !got;
               true);
           Alcotest.(check (list int))
             "fifo across the wrap"
             (List.init cap (fun i -> (10 * round) + i))
             (List.rev !got);
           check "empty again" 0 (Delete_buffer.size b)
         done))

let test_phase_trigger_points () =
  (* With buffer capacity [cap], the phase triggers on retire number
     [cap*i + 1]: the failing push runs a collect that drains everything,
     then retries and stays buffered.  For cap = 8: retires 9, 17, 25. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 ~max_threads:4 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let expected = function n when n <= 8 -> 0 | n when n <= 16 -> 1 | n when n <= 24 -> 2 | _ -> 3 in
         for n = 1 to 25 do
           smr.Smr.retire (alloc_node ());
           check (Fmt.str "phases after retire %d" n) (expected n) (Threadscan.phases ts)
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

(* ------------------------ §4.3 heap-block extension ----------------------- *)

let wash_regs noise =
  for _ = 1 to 64 do
    ignore (Runtime.read noise)
  done

let test_heap_block_pins_and_releases () =
  (* A pointer whose only reference lives in a registered heap block
     survives the phase; after deregistering the block it is reclaimed by
     the next phase. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 ~max_threads:4 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         let blk = Runtime.malloc 4 in
         Threadscan.add_heap_block ~start_addr:blk ~len:4;
         let p = alloc_node () in
         Runtime.write blk p;
         smr.Smr.retire p;
         for _ = 1 to 7 do
           smr.Smr.retire (alloc_node ())
         done;
         wash_regs noise;
         smr.Smr.retire (alloc_node ());
         (* phase 1: the 7 fillers freed, [p] marked via the block *)
         check "phase ran" 1 (Threadscan.phases ts);
         check "fillers freed, p survived" 7 (Smr.freed smr);
         check "p carried over" 1 (Threadscan.carried_last ts);
         (* deregister: the stashed reference no longer pins *)
         Threadscan.remove_heap_block ~start_addr:blk ~len:4;
         Runtime.write blk 0;
         for _ = 1 to 7 do
           smr.Smr.retire (alloc_node ())
         done;
         wash_regs noise;
         smr.Smr.retire (alloc_node ());
         check "second phase ran" 2 (Threadscan.phases ts);
         (* 7 + (carry p + 8 drained) = 16 *)
         check "p reclaimed after removal" 16 (Smr.freed smr);
         check "nothing carried" 0 (Threadscan.carried_last ts);
         Runtime.free blk;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

let test_heap_block_cross_thread () =
  (* The §4.3 scan happens inside the *owning* thread's signal handler: a
     worker stashes the only reference in its registered block; the main
     thread (reclaimer) retires the node and must not free it until the
     worker deregisters the block. *)
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let ts = small_ts ~buffer_size:8 ~max_threads:8 () in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let noise = Runtime.alloc_region 1 in
         let cell = Runtime.alloc_region 1 in
         let stage = Runtime.alloc_region 1 in
         let w =
           Runtime.spawn (fun () ->
               smr.Smr.thread_init ();
               let blk = Runtime.malloc 4 in
               Threadscan.add_heap_block ~start_addr:blk ~len:4;
               let p = alloc_node () in
               Runtime.write blk p;
               Runtime.write cell p;
               wash_regs noise;
               while Runtime.read stage = 0 do
                 Runtime.advance 10
               done;
               Threadscan.remove_heap_block ~start_addr:blk ~len:4;
               Runtime.write blk 0;
               wash_regs noise;
               Runtime.write stage 2;
               while Runtime.read stage = 2 do
                 Runtime.advance 10
               done;
               Runtime.free blk;
               smr.Smr.thread_exit ())
         in
         while Runtime.read cell = 0 do
           Runtime.advance 10
         done;
         smr.Smr.retire (Runtime.read cell);
         Runtime.write cell 0;
         for _ = 1 to 7 do
           smr.Smr.retire (alloc_node ())
         done;
         wash_regs noise;
         smr.Smr.retire (alloc_node ());
         check "phase ran" 1 (Threadscan.phases ts);
         check "p pinned by the worker's block" 7 (Smr.freed smr);
         check "p carried over" 1 (Threadscan.carried_last ts);
         Runtime.write stage 1;
         while Runtime.read stage <> 2 do
           Runtime.advance 10
         done;
         for _ = 1 to 7 do
           smr.Smr.retire (alloc_node ())
         done;
         wash_regs noise;
         smr.Smr.retire (alloc_node ());
         check "second phase ran" 2 (Threadscan.phases ts);
         check "p reclaimed once deregistered" 16 (Smr.freed smr);
         Runtime.write stage 3;
         Runtime.join w;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()))

(* ------------------------------ PCT scheduler ----------------------------- *)

let race_winner ~sched seed =
  let cell = ref 0 in
  ignore
    (Runtime.run ~config:{ cfg with seed; sched } (fun () ->
         let c = Runtime.alloc_region 1 in
         let a = Runtime.spawn (fun () -> Runtime.write c 1) in
         let b = Runtime.spawn (fun () -> Runtime.write c 2) in
         Runtime.join a;
         Runtime.join b;
         cell := Runtime.read c));
  !cell

let test_pct_reaches_both_orders () =
  let seen = Hashtbl.create 4 in
  for seed = 0 to 19 do
    Hashtbl.replace seen (race_winner ~sched:(Runtime.Pct { change_points = 1; expected_steps = 20 }) seed) ()
  done;
  check "both write orders reached" 2 (Hashtbl.length seen)

let test_pct_deterministic () =
  let spec = { Scenario.default with Scenario.ds = Scenario.Churn; policy = Scenario.Pct 3; seed = 11 } in
  let a = Scenario.run spec and b = Scenario.run spec in
  check "same steps" a.Scenario.steps b.Scenario.steps;
  check "same phases" a.Scenario.phases b.Scenario.phases;
  check "same events" a.Scenario.events b.Scenario.events;
  check "same violations" (List.length a.Scenario.violations) (List.length b.Scenario.violations)

let test_pct_spin_liveness () =
  (* A top-priority thread spinning through Backoff yields, which demotes
     it below the thread it waits for — the run terminates even with zero
     change points left. *)
  ignore
    (Runtime.run
       ~config:
         {
           cfg with
           seed = 5;
           max_steps = 100_000;
           sched = Runtime.Pct { change_points = 0; expected_steps = 100 };
         }
       (fun () ->
         let flag = Runtime.alloc_region 1 in
         let waiter =
           Runtime.spawn (fun () ->
               let b = Backoff.create () in
               while Runtime.read flag = 0 do
                 Backoff.once b
               done)
         in
         let writer = Runtime.spawn (fun () -> Runtime.write flag 1) in
         Runtime.join waiter;
         Runtime.join writer))

let test_pct_change_points_traced () =
  let record, entries = Trace.recorder () in
  ignore
    (Runtime.run
       ~config:
         {
           cfg with
           seed = 3;
           trace = Some record;
           sched = Runtime.Pct { change_points = 3; expected_steps = 100 };
         }
       (fun () ->
         let c = Runtime.alloc_region 1 in
         let ws =
           List.init 2 (fun _ ->
               Runtime.spawn (fun () ->
                   for _ = 1 to 200 do
                     ignore (Runtime.read c)
                   done))
         in
         List.iter Runtime.join ws));
  let demotions =
    List.length
      (List.filter
         (fun (e : Trace.entry) ->
           match e.Trace.event with Trace.Priority_changed _ -> true | _ -> false)
         (entries ()))
  in
  check "all change points fired" 3 demotions

(* ------------------------- linearizability checker ------------------------ *)

let ev ?(tid = 0) kind key result t0 t1 = { Set_intf.tid; kind; key; result; t0; t1 }

let test_lin_valid_overlap () =
  (* Two racing inserts: one wins, one loses — linearizable either way. *)
  let r =
    Linearize.check
      [ ev Set_intf.Op_insert 7 true 0 10; ev ~tid:1 Set_intf.Op_insert 7 false 5 15 ]
  in
  check_bool "valid" true (r.Linearize.violation = None);
  check "one key" 1 r.Linearize.keys

let test_lin_stale_read () =
  (* contains(k) = false strictly after insert(k) = true completed, with no
     remove in between: no linearization explains it. *)
  let r =
    Linearize.check [ ev Set_intf.Op_insert 7 true 0 5; ev ~tid:1 Set_intf.Op_contains 7 false 10 12 ]
  in
  check_bool "violation found" true (r.Linearize.violation <> None)

let test_lin_double_insert () =
  let r =
    Linearize.check [ ev Set_intf.Op_insert 3 true 0 5; ev ~tid:1 Set_intf.Op_insert 3 true 10 15 ]
  in
  check_bool "two winning inserts impossible" true (r.Linearize.violation <> None)

let test_lin_mixed_valid () =
  let r =
    Linearize.check
      [
        ev Set_intf.Op_insert 1 true 0 4;
        ev ~tid:1 Set_intf.Op_remove 1 true 2 8;
        ev ~tid:2 Set_intf.Op_contains 1 false 6 12;
        ev Set_intf.Op_insert 1 true 14 16;
        ev ~tid:1 Set_intf.Op_contains 1 true 18 20;
      ]
  in
  check_bool "valid mixed history" true (r.Linearize.violation = None)

let test_lin_keys_independent () =
  (* A violation on one key is found even among clean traffic on others. *)
  let r =
    Linearize.check
      [
        ev Set_intf.Op_insert 1 true 0 4;
        ev Set_intf.Op_contains 1 true 6 8;
        ev ~tid:1 Set_intf.Op_insert 2 true 0 5;
        ev ~tid:1 Set_intf.Op_contains 2 false 10 12;
      ]
  in
  (match r.Linearize.violation with
  | Some (key, _) -> check "offending key" 2 key
  | None -> Alcotest.fail "expected a violation");
  check "both keys examined" 2 r.Linearize.keys

let test_lin_segmentation () =
  let segs =
    Linearize.segments
      [ ev Set_intf.Op_insert 1 true 0 5; ev Set_intf.Op_remove 1 true 10 15; ev ~tid:1 Set_intf.Op_contains 1 false 12 20 ]
  in
  Alcotest.(check (list int)) "quiescent cut after the first op" [ 1; 2 ] (List.map List.length segs)

let test_lin_wide_segment_skipped () =
  (* 25 mutually overlapping reads exceed the search bound: skipped, not
     failed. *)
  let events = List.init 25 (fun i -> ev ~tid:i Set_intf.Op_contains 4 false 0 100) in
  let r = Linearize.check events in
  check_bool "no violation" true (r.Linearize.violation = None);
  check "segment skipped" 1 r.Linearize.skipped_segments

(* ------------------------------ heap sanitizer ---------------------------- *)

let test_sanitizer_canary () =
  (* Clobbering the word just past a block's payload is caught on free. *)
  let rt = Runtime.create { cfg with sanitize = true; strict_mem = false } in
  ignore
    (Runtime.add_thread rt (fun () ->
         let a = Runtime.malloc 2 in
         ignore (Runtime.malloc 1);
         Runtime.free a));
  ignore (Runtime.start rt);
  check "clean frees leave canaries alone" 0 (Mem.fault_count (Runtime.mem rt) Mem.Canary_overwrite);
  let rt = Runtime.create { cfg with sanitize = true; strict_mem = false } in
  let victim = ref 0 in
  ignore
    (Runtime.add_thread rt (fun () ->
         let a = Runtime.malloc 2 in
         victim := a;
         Runtime.free a));
  (* run far enough to learn the address, then rerun with the overwrite *)
  ignore (Runtime.start rt);
  let addr = !victim in
  let rt = Runtime.create { cfg with sanitize = true; strict_mem = false } in
  ignore
    (Runtime.add_thread rt (fun () ->
         let a = Runtime.malloc 2 in
         let size = Alloc.block_size (Runtime.alloc rt) a in
         Mem.raw_write (Runtime.mem rt) (a + size) 0xDEAD;
         Runtime.free a));
  ignore (Runtime.start rt);
  check "same deterministic address" addr !victim;
  check "canary overwrite detected" 1 (Mem.fault_count (Runtime.mem rt) Mem.Canary_overwrite)

let test_sanitizer_generations () =
  (* The per-base generation counter distinguishes reuse of an address —
     the ABA signature — from a plain double retire. *)
  let rt = Runtime.create { cfg with sanitize = true } in
  let g1 = ref 0 and g2 = ref 0 and same = ref false in
  ignore
    (Runtime.add_thread rt (fun () ->
         let a = Runtime.malloc 3 in
         g1 := Alloc.generation (Runtime.alloc rt) a;
         Runtime.free a;
         let b = Runtime.malloc 3 in
         same := a = b;
         g2 := Alloc.generation (Runtime.alloc rt) b;
         Runtime.free b));
  ignore (Runtime.start rt);
  check_bool "thread cache reuses the address" true !same;
  check "first generation" 1 !g1;
  check "bumped on reuse" 2 !g2

let test_sanitizer_fault_context () =
  (* The fault hook captures the offending thread while it is being
     stepped — before the strict-mode raise unwinds it. *)
  let rt = Runtime.create { cfg with sanitize = true; propagate_failures = false } in
  let san = Sanitize.install rt ~phase_of:(fun () -> 42) in
  let victim_tid = ref (-1) in
  ignore
    (Runtime.add_thread rt (fun () ->
         let a = Runtime.malloc 2 in
         Runtime.free a;
         let w =
           Runtime.spawn (fun () ->
               victim_tid := Runtime.self ();
               ignore (Runtime.read a))
         in
         Runtime.join w));
  ignore (Runtime.start rt);
  match Sanitize.first san with
  | None -> Alcotest.fail "expected a captured fault"
  | Some f ->
      check_bool "kind is UAF read" true (f.Sanitize.kind = Mem.Uaf_read);
      check "attributed to the faulting thread" !victim_tid f.Sanitize.tid;
      check "phase context threaded through" 42 f.Sanitize.phase

(* ------------------------- explorer, end to end --------------------------- *)

let test_sweep_clean () =
  List.iter
    (fun ds ->
      let specs =
        Explore.sweep_specs ~base:{ Scenario.default with Scenario.ds } ~schedules:6 ~seed0:0
          ~pct_depth:3
      in
      let s = Explore.sweep specs in
      check (Fmt.str "%s: no violations" (Scenario.ds_to_string ds)) 0
        (List.length s.Explore.failures);
      check (Fmt.str "%s: all schedules ran" (Scenario.ds_to_string ds)) 6 s.Explore.runs)
    [ Scenario.List_ds; Scenario.Hash_ds; Scenario.Skip_ds; Scenario.Churn ]

let test_explorer_catches_seeded_bug () =
  (* The acceptance gate: a deliberately broken sweep (carry-over of marked
     entries skipped) must be detected and shrink to a failing spec whose
     replay command reproduces it. *)
  let base =
    { Scenario.default with Scenario.ds = Scenario.Churn; inject = Threadscan.Skip_carryover }
  in
  let s = Explore.sweep (Explore.sweep_specs ~base ~schedules:4 ~seed0:0 ~pct_depth:3) in
  check_bool "seeded bug caught" true (s.Explore.failures <> []);
  let first = (List.hd s.Explore.failures).Scenario.spec in
  let shrunk = Explore.shrink first in
  check_bool "shrunk spec still fails" true (Scenario.failed (Scenario.run shrunk));
  check_bool "shrink did not grow the spec" true
    (shrunk.Scenario.threads <= first.Scenario.threads && shrunk.Scenario.ops <= first.Scenario.ops);
  let cmd = Scenario.replay_command shrunk in
  check_bool "replay command names the injection" true (contains cmd "skip-carryover")

let test_scenario_attributes_uaf () =
  (* The violation a seeded bug produces is a *sanitizer* finding with
     thread and phase attribution, not a bare crash. *)
  let spec =
    { Scenario.default with Scenario.ds = Scenario.Churn; inject = Threadscan.Skip_carryover; seed = 0 }
  in
  let o = Scenario.run spec in
  match o.Scenario.violations with
  | [ Report.Sanitizer { kind = Mem.Uaf_read; tid; phase; _ } ] ->
      check_bool "attributed to a worker" true (tid >= 0);
      check_bool "phase recorded" true (phase >= 1)
  | vs ->
      Alcotest.fail
        (Fmt.str "expected one attributed UAF, got: %a" Fmt.(list ~sep:(any "; ") Report.pp) vs)

(* ------------------------- fault plans (crash/stall) ---------------------- *)

let plan s = match Fault_plan.parse s with Ok p -> p | Error e -> Alcotest.fail e

let test_fault_string_roundtrip () =
  (* The checker's subset of the plan grammar: none, one crash, one
     bounded stall — each accepted and printed back verbatim in replay
     commands.  Every other plan is refused with the reason. *)
  List.iter
    (fun s ->
      check_bool (Fmt.str "%s accepted" s) true (Scenario.check_fault (plan s) = Ok ());
      Alcotest.(check string) (Fmt.str "%s round-trips" s) s (Fault_plan.to_string (plan s)))
    [ "none"; "crash:1@10"; "crash:3@0"; "stall:2@7:60000" ];
  List.iter
    (fun s ->
      match Scenario.check_fault (plan s) with
      | Ok () -> Alcotest.failf "%s should be outside the checker's subset" s
      | Error e -> check_bool (Fmt.str "%s: error names it (got %S)" s e) true (contains e s))
    [
      "stall:1@3:forever";
      "release:1@3";
      "drop-signals:1@3:2";
      "delay-signals:1@3:500";
      "crash:1@3ms";
      "crash:1@3,stall:1@9:100";
    ];
  check_bool "garbage is a parse error" true (Result.is_error (Fault_plan.parse "crash@oops"))

let test_crash_sweep_stays_clean () =
  (* Killing a worker mid-operation is a legal execution: the degradation
     ladder reaps it and the run must satisfy the same oracles (UAF-free,
     leak within the crash budget). *)
  List.iter
    (fun ds ->
      let base =
        {
          Scenario.default with
          Scenario.ds;
          fault = plan "crash:1@10";
        }
      in
      let s = Explore.sweep (Explore.sweep_specs ~base ~schedules:6 ~seed0:0 ~pct_depth:3) in
      check (Fmt.str "%s under crash: no violations" (Scenario.ds_to_string ds)) 0
        (List.length s.Explore.failures))
    [ Scenario.List_ds; Scenario.Churn ]

let test_stall_sweep_stays_clean () =
  let base =
    {
      Scenario.default with
      Scenario.ds = Scenario.Churn;
      fault = plan "stall:1@10:60000";
    }
  in
  let s = Explore.sweep (Explore.sweep_specs ~base ~schedules:6 ~seed0:0 ~pct_depth:3) in
  check "churn under stall: no violations" 0 (List.length s.Explore.failures)

let test_proxy_scan_load_bearing_under_stall () =
  (* The shrunk counterexample from the crash-safety sweep: with the proxy
     scan disabled, a frozen suspect's held node is freed under it and the
     sanitizer attributes a UAF.  This pins that the proxy scan is what
     makes stalled-thread reaping sound. *)
  let spec =
    {
      Scenario.default with
      Scenario.ds = Scenario.Churn;
      threads = 2;
      ops = 40;
      key_range = 4;
      inject = Threadscan.Skip_proxy_scan;
      fault = plan "stall:1@10:60000";
      policy = Scenario.Pct 3;
      seed = 1;
    }
  in
  let o = Scenario.run spec in
  check_bool "violation detected" true (Scenario.failed o);
  check_bool "attributed as a sanitizer UAF" true
    (List.exists
       (function Report.Sanitizer { kind = Mem.Uaf_read; _ } -> true | _ -> false)
       o.Scenario.violations);
  (* the same schedule with the proxy scan back on is clean *)
  let fixed = Scenario.run { spec with Scenario.inject = Threadscan.No_fault } in
  check_bool "clean with the proxy scan enabled" true (not (Scenario.failed fixed))

let test_stale_recovery_blinds_phase () =
  (* Regression: the schedule that caught the stale-recovery unsoundness.
     A suspect's missed signal delivers on wake and its handler scans the
     *previous* master (it read the phase word before the new publish); the
     reclaimer saw the ack move, declared it recovered, and swept — freeing
     a node only the recovered thread's frame still referenced.  The fix
     blinds any phase whose recovery ack is not tagged with the current
     phase; this spec must stay clean forever. *)
  let spec =
    {
      Scenario.default with
      Scenario.ds = Scenario.Churn;
      threads = 3;
      ops = 40;
      key_range = 4;
      fault = plan "stall:1@10:60000";
      policy = Scenario.Uniform;
      seed = 50;
    }
  in
  let o = Scenario.run spec in
  List.iter (fun v -> Fmt.epr "%a@." Report.pp v) o.Scenario.violations;
  check "no violations" 0 (List.length o.Scenario.violations)

let test_crash_leak_budget_enforced () =
  (* The oracle's crash-leak allowance is exactly [victims] nodes: a crashed
     thread may take its in-flight retirement with it, nothing more.  A
     clean run under a crash plan must not trip the outstanding check. *)
  let spec =
    {
      Scenario.default with
      Scenario.ds = Scenario.Churn;
      fault = plan "crash:2@5";
      seed = 3;
    }
  in
  let o = Scenario.run spec in
  check "no violations within the budget" 0 (List.length o.Scenario.violations);
  check_bool "phases still completed" true (o.Scenario.phases >= 1)

let test_reclaimer_crash_takeover () =
  (* The reclaimer dies mid-phase holding the phase lock; the heartbeat
     takeover must finish reclamation soundly within the one-node leak
     budget. *)
  let base =
    { Scenario.default with Scenario.ds = Scenario.Churn; inject = Threadscan.Crash_mid_phase }
  in
  let s = Explore.sweep (Explore.sweep_specs ~base ~schedules:6 ~seed0:0 ~pct_depth:3) in
  check "survives reclaimer crash mid-phase" 0 (List.length s.Explore.failures)

(* ---------------------- retry loops yield under PCT ----------------------- *)

(* Under PCT only a yield demotes a thread.  Each of these schedules once
   ran into its step limit: a lazy-list walk restart, a skip-list find
   restart or a skip-list validate-failure retry spun at high priority
   without yielding, starving the remover or lock holder it waited on.
   Every spec is a sweep's replay line; all must now run clean. *)
let livelock_specs =
  let spec ?(scheme = "threadscan") ?(ops = 40) ?(key_range = 32) ?(analyze = false) ds seed =
    {
      Scenario.default with
      Scenario.ds;
      scheme;
      ops;
      key_range;
      policy = Scenario.Pct 3;
      seed;
      analyze;
    }
  in
  [
    ("lazy seed 2535", spec Scenario.Lazy_ds 2535);
    ("lazy seed 3351", spec Scenario.Lazy_ds 3351);
    ("skip seed 2771", spec ~ops:20 ~key_range:16 Scenario.Skip_ds 2771);
    ("skip seed 4095", spec Scenario.Skip_ds 4095);
    ("skip epoch race seed 61", spec ~scheme:"epoch" ~analyze:true Scenario.Skip_ds 61);
    ("skip stacktrack race seed 31", spec ~scheme:"stacktrack" ~analyze:true Scenario.Skip_ds 31);
    ("skip hyaline race seed 61", spec ~scheme:"hyaline" ~analyze:true Scenario.Skip_ds 61);
  ]

let test_retry_yields spec () =
  let o = Scenario.run spec in
  List.iter (fun v -> Fmt.epr "%a@." Report.pp v) o.Scenario.violations;
  check "no violations" 0 (List.length o.Scenario.violations)

(* ------------------ skip-list readers leave removed nodes ----------------- *)

(* A reader standing on a removed node once followed its stale [next] to a
   node retired (and freed by a phase the reader had acknowledged) while
   that link still reached it: the race detector reported the reader's
   [key_of] read against the free.  [find] now restarts when a pred it
   validates is marked.  Seed 91 is the sweep's shrunk first failure
   ([tscheck sweep --race --ds skip --schedules 1500 --key-range 8]); 769
   and 845 are two of its unshrunk ones. *)
let skip_reader_specs =
  let spec ~threads seed =
    {
      Scenario.default with
      Scenario.ds = Scenario.Skip_ds;
      threads;
      key_range = 8;
      policy = Scenario.Pct 3;
      seed;
      analyze = true;
    }
  in
  [
    ("skip race seed 91", spec ~threads:2 91);
    ("skip race seed 769", spec ~threads:3 769);
    ("skip race seed 845", spec ~threads:3 845);
  ]

(* ------------------------------ shrink, axis by axis ---------------------- *)

(* Synthetic failure predicates isolate each reduction axis without
   needing a real protocol bug: shrink_memo must drive every axis to the
   smallest spec the predicate still accepts, never run the same spec
   twice, and stop the seed scan at the first failing seed. *)

let counting_fails pred =
  let seen : (Scenario.spec, int) Hashtbl.t = Hashtbl.create 64 in
  let f spec =
    Hashtbl.replace seen spec (1 + Option.value ~default:0 (Hashtbl.find_opt seen spec));
    pred spec
  in
  (f, seen)

let test_shrink_reduces_each_axis () =
  (* Fails while threads >= 2, ops >= 10 and key_range >= 8: the floor on
     each axis is exactly one reduction short of breaking the predicate. *)
  let pred s = s.Scenario.threads >= 2 && s.Scenario.ops >= 10 && s.Scenario.key_range >= 8 in
  let fails, seen = counting_fails pred in
  let shrunk, stats = Explore.shrink_memo ~fails Scenario.default in
  check "threads reduced to the predicate floor" 2 shrunk.Scenario.threads;
  check "ops halved down to the predicate floor" 10 shrunk.Scenario.ops;
  check "key range halved down to the predicate floor" 8 shrunk.Scenario.key_range;
  check "seed 0 untouched" 0 shrunk.Scenario.seed;
  check "memo: accounting adds up" stats.Explore.candidates
    (stats.Explore.runs_executed + stats.Explore.memo_hits);
  Hashtbl.iter
    (fun _ n -> check "memo: no spec ever run twice" 1 n)
    seen

let test_shrink_memo_hits_across_passes () =
  (* Interacting axes: reducing threads below 2 only keeps failing once
     ops has been halved first, so the fixpoint needs a second pass to
     finish the job — and the pass after that re-proposes an
     already-judged candidate, which must be answered from the memo
     table, not re-run. *)
  let allowed = [ (3, 40); (2, 40); (2, 20); (1, 20); (1, 10) ] in
  let pred s = List.mem (s.Scenario.threads, s.Scenario.ops) allowed in
  let fails, seen = counting_fails pred in
  let shrunk, stats = Explore.shrink_memo ~fails Scenario.default in
  check "second pass finished the threads reduction" 1 shrunk.Scenario.threads;
  check "ops reduced across passes" 10 shrunk.Scenario.ops;
  check_bool "fixpoint revisits are memo hits" true (stats.Explore.memo_hits >= 1);
  Hashtbl.iter (fun _ n -> check "no spec ever run twice" 1 n) seen

let test_shrink_seed_scan_stops_at_first_failure () =
  (* Seeds are scanned from 0 and the scan must stop at the first failing
     seed — not the smallest-failing over the whole range. *)
  let pred s = s.Scenario.seed >= 10 in
  let fails, seen = counting_fails pred in
  let spec = { Scenario.default with Scenario.seed = 30 } in
  let shrunk, _ = Explore.shrink_memo ~fails spec in
  check "stopped at the first failing seed" 10 shrunk.Scenario.seed;
  Hashtbl.iter
    (fun s _ ->
      check_bool "never scanned past the first failing seed" true
        (s.Scenario.seed <= 10 || s.Scenario.seed = 30))
    seen

let test_shrink_seed_scan_bounded () =
  (* Regression for the stopping conditions: the scan never looks at
     seeds at or beyond the 64-seed horizon, and never at or beyond the
     spec's own seed — a spec whose bug needs its exact large seed keeps
     it. *)
  let pred s = s.Scenario.seed = 100 in
  let fails, seen = counting_fails pred in
  let spec = { Scenario.default with Scenario.seed = 100 } in
  let shrunk, _ = Explore.shrink_memo ~fails spec in
  check "large seed kept when no smaller seed fails" 100 shrunk.Scenario.seed;
  Hashtbl.iter
    (fun s _ ->
      check_bool "scan bounded by the 64-seed horizon" true
        (s.Scenario.seed < 64 || s.Scenario.seed = 100))
    seen

let test_shrink_nonfailing_spec_unchanged () =
  let fails, _ = counting_fails (fun _ -> false) in
  let shrunk, stats = Explore.shrink_memo ~fails Scenario.default in
  check_bool "spec returned unchanged" true (shrunk = Scenario.default);
  check "exactly one probe run" 1 stats.Explore.runs_executed;
  check "no reduction candidates tried" 1 stats.Explore.candidates

let () =
  Alcotest.run "check"
    [
      ( "delete-buffer boundary",
        [
          Alcotest.test_case "exact capacity across wraps" `Quick test_db_exact_capacity_wrap;
          Alcotest.test_case "phase triggers at cap*i + 1" `Quick test_phase_trigger_points;
        ] );
      ( "heap-block extension (4.3)",
        [
          Alcotest.test_case "registered block pins, removal releases" `Quick
            test_heap_block_pins_and_releases;
          Alcotest.test_case "cross-thread block scan" `Quick test_heap_block_cross_thread;
        ] );
      ( "pct scheduler",
        [
          Alcotest.test_case "reaches both orders" `Quick test_pct_reaches_both_orders;
          Alcotest.test_case "deterministic" `Quick test_pct_deterministic;
          Alcotest.test_case "yielding spin loops stay live" `Quick test_pct_spin_liveness;
          Alcotest.test_case "change points traced" `Quick test_pct_change_points_traced;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "racing inserts ok" `Quick test_lin_valid_overlap;
          Alcotest.test_case "stale read caught" `Quick test_lin_stale_read;
          Alcotest.test_case "double winning insert caught" `Quick test_lin_double_insert;
          Alcotest.test_case "mixed valid history" `Quick test_lin_mixed_valid;
          Alcotest.test_case "keys are independent" `Quick test_lin_keys_independent;
          Alcotest.test_case "quiescent-cut segmentation" `Quick test_lin_segmentation;
          Alcotest.test_case "wide segment skipped" `Quick test_lin_wide_segment_skipped;
        ] );
      ( "heap sanitizer",
        [
          Alcotest.test_case "canary overwrite" `Quick test_sanitizer_canary;
          Alcotest.test_case "allocation generations" `Quick test_sanitizer_generations;
          Alcotest.test_case "fault context capture" `Quick test_sanitizer_fault_context;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "clean sweeps stay clean" `Quick test_sweep_clean;
          Alcotest.test_case "seeded bug caught and shrunk" `Quick test_explorer_catches_seeded_bug;
          Alcotest.test_case "UAF attributed, not just crashed" `Quick test_scenario_attributes_uaf;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault spec round-trips" `Quick test_fault_string_roundtrip;
          Alcotest.test_case "crash plans stay clean" `Quick test_crash_sweep_stays_clean;
          Alcotest.test_case "stall plans stay clean" `Quick test_stall_sweep_stays_clean;
          Alcotest.test_case "proxy scan is load-bearing under stall" `Quick
            test_proxy_scan_load_bearing_under_stall;
          Alcotest.test_case "crash-leak budget enforced" `Quick test_crash_leak_budget_enforced;
          Alcotest.test_case "stale recovery blinds the phase (regression)" `Quick
            test_stale_recovery_blinds_phase;
          Alcotest.test_case "reclaimer crash mid-phase survives" `Quick
            test_reclaimer_crash_takeover;
        ] );
      ( "livelock",
        List.map
          (fun (name, spec) -> Alcotest.test_case name `Quick (test_retry_yields spec))
          livelock_specs );
      ( "skip-reader",
        List.map
          (fun (name, spec) -> Alcotest.test_case name `Quick (test_retry_yields spec))
          skip_reader_specs );
      ( "shrink",
        [
          Alcotest.test_case "every axis reduced to its floor" `Quick
            test_shrink_reduces_each_axis;
          Alcotest.test_case "fixpoint revisits answered from the memo" `Quick
            test_shrink_memo_hits_across_passes;
          Alcotest.test_case "seed scan stops at the first failing seed" `Quick
            test_shrink_seed_scan_stops_at_first_failure;
          Alcotest.test_case "seed scan bounded by horizon and own seed" `Quick
            test_shrink_seed_scan_bounded;
          Alcotest.test_case "non-failing spec returned unchanged" `Quick
            test_shrink_nonfailing_spec_unchanged;
        ] );
    ]
