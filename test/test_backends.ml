(* Backend conformance: the same algorithm code (sync primitives, SMR
   schemes, data structures — all written against Ts_rt) must behave
   identically on the deterministic simulator and on real OCaml 5
   domains.  Every case here runs once per backend; the native runs use
   a 4-domain pool so they exercise genuine parallelism even when the
   logical thread count is higher.  A final native-only stress group
   drives ThreadScan's retire/scan/free pipeline under real parallelism
   with the strict shadow-heap oracle armed. *)

module Rt = Ts_rt
module Frame = Ts_rt.Frame
module Smr = Ts_smr.Smr
module Spinlock = Ts_sync.Spinlock
module Ticket_lock = Ts_sync.Ticket_lock
module Barrier = Ts_sync.Barrier
module Backoff = Ts_sync.Backoff

let check = Alcotest.(check int)

type runner = {
  rname : string;
  (* runs [body] as logical thread 0, returns total memory faults *)
  exec : ?strict:bool -> (unit -> unit) -> int;
  (* runs [body] as logical thread 0 with failures collected, not raised *)
  failures : (unit -> unit) -> (int * exn) list;
}

let sim_runner =
  {
    rname = "sim";
    exec =
      (fun ?(strict = true) body ->
        let module R = Ts_sim.Runtime in
        let cfg = { R.default_config with strict_mem = strict; propagate_failures = true } in
        let rt = R.create cfg in
        ignore (R.add_thread rt body);
        ignore (R.start rt);
        Ts_umem.Mem.total_faults (R.mem rt));
    failures =
      (fun body ->
        let module R = Ts_sim.Runtime in
        (R.run ~config:{ R.default_config with propagate_failures = false } body).R.failures);
  }

let native_runner =
  {
    rname = "native";
    exec =
      (fun ?(strict = true) body ->
        let module R = Ts_par.Runtime in
        let cfg = { R.default_config with strict_mem = strict; pool = 4 } in
        let res = R.run ~config:cfg body in
        Ts_par.Heap.total_faults res.R.heap);
    failures =
      (fun body ->
        let module R = Ts_par.Runtime in
        (R.run ~config:{ R.default_config with propagate_failures = false; pool = 4 } body)
          .R.failures);
  }

let runners = [ sim_runner; native_runner ]

(* ------------------------------------------------------------------ *)
(* Core runtime ops                                                   *)
(* ------------------------------------------------------------------ *)

let test_memory_roundtrip r () =
  let out = ref 0 and poisoned = ref 0 in
  let faults =
    r.exec ~strict:false (fun () ->
        let a = Rt.malloc 4 in
        Rt.write a 42;
        Rt.write (a + 3) 7;
        out := Rt.read a + Rt.read (a + 3);
        Rt.free a;
        (* UAF: non-strict mode counts the fault and returns poison *)
        poisoned := if Rt.read a = Ts_umem.Mem.poison then 1 else 0)
  in
  check "read back" 49 !out;
  check "freed read returns poison" 1 !poisoned;
  Alcotest.(check bool) "uaf counted" true (faults >= 1)

let test_atomics r () =
  let out = ref [] in
  let faults =
    r.exec (fun () ->
        let a = Rt.alloc_region 1 in
        Rt.write a 10;
        let ok1 = Rt.cas a 10 20 in
        let ok2 = Rt.cas a 10 30 in
        let prev = Rt.faa a 5 in
        out := [ (if ok1 then 1 else 0); (if ok2 then 1 else 0); prev; Rt.read a ])
  in
  Alcotest.(check (list int)) "cas/faa semantics" [ 1; 0; 20; 25 ] !out;
  check "no faults" 0 faults

let test_double_free_detected r () =
  let faults =
    r.exec ~strict:false (fun () ->
        let a = Rt.malloc 2 in
        Rt.free a;
        Rt.free a)
  in
  Alcotest.(check bool) "double free counted" true (faults >= 1)

let test_frames r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let base0 = snd (Rt.stack_range ()) in
         Frame.with_frame 4 (fun fr ->
             Frame.set fr 0 11;
             Frame.set fr 3 31;
             let grown = snd (Rt.stack_range ()) in
             out := Frame.get fr 0 + Frame.get fr 3 + (grown - base0))))
  in
  check "frame slots + stack growth" (11 + 31 + 4) !out

let test_clock_and_rand r () =
  let ok = ref false in
  let (_ : int) =
    (r.exec (fun () ->
         let t0 = Rt.now () in
         Rt.advance 123;
         let t1 = Rt.now () in
         let v = Rt.rand_below 10 in
         ok := t1 - t0 >= 123 && v >= 0 && v < 10 && Rt.self () = 0))
  in
  Alcotest.(check bool) "clock advances, rand in range" true !ok

let test_spawn_join r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let cell = Rt.alloc_region 1 in
         let ts = List.init 4 (fun i -> Rt.spawn (fun () -> ignore (Rt.faa cell (i + 1)))) in
         List.iter Rt.join ts;
         List.iter (fun t -> assert (Rt.is_done t)) ts;
         out := Rt.read cell))
  in
  check "all workers ran" 10 !out

let test_signal_delivery r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let flag = Rt.alloc_region 2 in
         let w =
           Rt.spawn (fun () ->
               Rt.set_signal_handler (fun () -> Rt.write (flag + 1) (Rt.read (flag + 1) + 1));
               Rt.write flag 1;
               (* spin at op boundaries until the signal landed *)
               let b = Backoff.create () in
               while Rt.read (flag + 1) = 0 do
                 Backoff.once b
               done)
         in
         let b = Backoff.create () in
         while Rt.read flag = 0 do
           Backoff.once b
         done;
         Rt.signal w;
         Rt.join w;
         out := Rt.read (flag + 1)))
  in
  Alcotest.(check bool) "handler ran at least once" true (!out >= 1)

(* Every op that names another thread, given a tid the run never
   spawned, fails the calling thread — on both backends, and without the
   error escaping the run. *)
let tid_ops =
  let u = 999 in
  [
    ("join", fun () -> Rt.join u);
    ("is_done", fun () -> ignore (Rt.is_done u : bool));
    ("signal", fun () -> Rt.signal u);
    ("scan_ranges_of", fun () -> ignore (Rt.scan_ranges_of u : (int * int) list));
    ("crash", fun () -> Rt.crash u);
    ("stall", fun () -> Rt.stall ~cycles:10 u);
    ("unstall", fun () -> Rt.unstall u);
    ("drop_signals", fun () -> Rt.drop_signals u 1);
    ("delay_signals", fun () -> Rt.delay_signals u 10);
    ("is_crashed", fun () -> ignore (Rt.is_crashed u : bool));
    ("is_stalled", fun () -> ignore (Rt.is_stalled u : bool));
    ("clock_of", fun () -> ignore (Rt.clock_of u : int));
  ]

let test_unknown_tid_fails_caller r () =
  List.iter
    (fun (name, op) ->
      let returned = ref false in
      let failed =
        r.failures (fun () ->
            op ();
            returned := true)
      in
      Alcotest.(check (list int)) (name ^ ": only the caller failed") [ 0 ] (List.map fst failed);
      Alcotest.(check bool) (name ^ ": the op did not return") false !returned)
    tid_ops

(* ------------------------------------------------------------------ *)
(* scan_words: a read loop, op for op                                  *)
(* ------------------------------------------------------------------ *)

(* The contract: a read of every word, then the window test. *)
let read_loop base len ~lo ~hi f =
  for a = base to base + len - 1 do
    let w = Rt.read a in
    if w >= lo && w <= hi then f w
  done

(* The words [scan] hands on over [base, base + len), in order, and how
   far it moved [now ()].  The default window passes every word. *)
let scanned ?(lo = min_int) ?(hi = max_int) scan base len =
  let acc = ref [] in
  let t0 = Rt.now () in
  scan base len ~lo ~hi (fun v -> acc := v :: !acc);
  (List.rev !acc, Rt.now () - t0)

(* One private range (a shadow-stack frame) and one shared range (a heap
   block), each scanned by a read loop and by [scan_words], once with
   every word passing and once through a narrow window.  Natively the
   private range is the plain-load path: the window must still yield
   exactly what [Frame.set] wrote. *)
let test_scan_words_matches_read r () =
  let out = ref [] in
  let (_ : int) =
    r.exec (fun () ->
        let block = Rt.malloc 6 in
        for i = 0 to 5 do
          Rt.write (block + i) ((i * 7) + 1)
        done;
        Frame.with_frame 5 (fun fr ->
            for i = 0 to 4 do
              Frame.set fr i (100 + i)
            done;
            let sbase, sp = Rt.stack_range () in
            out :=
              List.concat_map
                (fun ((base, len), (lo, hi)) ->
                  [
                    (scanned read_loop base len, scanned Rt.scan_words base len);
                    (scanned ~lo ~hi read_loop base len, scanned ~lo ~hi Rt.scan_words base len);
                  ])
                [ ((sbase, sp - sbase), (101, 103)); ((block, 6), (8, 29)) ]);
        Rt.free block)
  in
  match !out with
  | [
      (stack_loop, stack_scan);
      (stack_wloop, stack_wscan);
      (heap_loop, heap_scan);
      (heap_wloop, heap_wscan);
    ] ->
      Alcotest.(check (list int)) "private range: same words" (fst stack_loop) (fst stack_scan);
      Alcotest.(check (list int))
        "private window: the frame's words" [ 101; 102; 103 ] (fst stack_wscan);
      Alcotest.(check (list int))
        "private window: read loop agrees" (fst stack_wloop) (fst stack_wscan);
      Alcotest.(check (list int))
        "shared range: same words" [ 1; 8; 15; 22; 29; 36 ] (fst heap_scan);
      Alcotest.(check (list int)) "shared range: read loop agrees" (fst heap_loop) (fst heap_scan);
      Alcotest.(check (list int))
        "shared window: bounds inclusive" [ 8; 15; 22; 29 ] (fst heap_wscan);
      Alcotest.(check (list int))
        "shared window: read loop agrees" (fst heap_wloop) (fst heap_wscan);
      check "private range: same charge" (snd stack_loop) (snd stack_scan);
      check "shared range: same charge" (snd heap_loop) (snd heap_scan);
      check "private window: every word charged" (snd stack_scan) (snd stack_wscan);
      check "shared window: every word charged" (snd heap_scan) (snd heap_wscan);
      check "private window: read loop agrees on the charge" (snd stack_wloop) (snd stack_wscan);
      check "shared window: read loop agrees on the charge" (snd heap_wloop) (snd heap_wscan);
      Alcotest.(check bool) "shared words cost more than private ones" true
        (snd heap_scan / 6 > snd stack_scan / List.length (fst stack_scan))
  | _ -> Alcotest.fail "body did not run"

let test_scan_words_empty r () =
  let calls = ref 0 and moved = ref (-1) in
  let (_ : int) =
    r.exec (fun () ->
        let block = Rt.malloc 2 in
        let t0 = Rt.now () in
        Rt.scan_words block 0 ~lo:min_int ~hi:max_int (fun _ -> incr calls);
        Rt.scan_words block (-3) ~lo:min_int ~hi:max_int (fun _ -> incr calls);
        moved := Rt.now () - t0;
        Rt.free block)
  in
  check "f never called" 0 !calls;
  check "clock unmoved" 0 !moved

(* A scanned freed block trips the same use-after-free check as a read,
   once per word. *)
let test_native_scan_words_uaf () =
  let module R = Ts_par.Runtime in
  let uaf scan =
    let got = ref [] in
    let res =
      R.run
        ~config:{ R.default_config with strict_mem = false; pool = 2 }
        (fun () ->
          let block = Rt.malloc 4 in
          Rt.free block;
          got := fst (scanned scan block 4))
    in
    (!got, Ts_par.Heap.fault_count res.R.heap Ts_umem.Mem.Uaf_read)
  in
  let loop_words, loop_faults = uaf read_loop and scan_words, scan_faults = uaf Rt.scan_words in
  check "read loop: one Uaf_read per word" 4 loop_faults;
  check "scan_words: the same faults" loop_faults scan_faults;
  Alcotest.(check (list int)) "poison, as read returns" loop_words scan_words;
  Alcotest.(check bool) "poisoned" true (List.for_all (( = ) Ts_umem.Mem.poison) scan_words)

(* ------------------------------------------------------------------ *)
(* Sync primitives                                                    *)
(* ------------------------------------------------------------------ *)

let hammer ~threads ~iters ~lock ~unlock counter =
  let ts =
    List.init threads (fun _ ->
        Rt.spawn (fun () ->
            for _ = 1 to iters do
              lock ();
              let v = Rt.read counter in
              Rt.advance 3;
              Rt.write counter (v + 1);
              unlock ()
            done))
  in
  List.iter Rt.join ts

let test_spinlock r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let counter = Rt.alloc_region 1 in
         let l = Spinlock.create () in
         hammer ~threads:6 ~iters:40
           ~lock:(fun () -> Spinlock.acquire l)
           ~unlock:(fun () -> Spinlock.release l)
           counter;
         out := Rt.read counter))
  in
  check "no lost updates under spinlock" 240 !out

let test_ticket_lock r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let counter = Rt.alloc_region 1 in
         let l = Ticket_lock.create () in
         hammer ~threads:6 ~iters:40
           ~lock:(fun () -> Ticket_lock.acquire l)
           ~unlock:(fun () -> Ticket_lock.release l)
           counter;
         out := Rt.read counter))
  in
  check "no lost updates under ticket lock" 240 !out

let test_barrier r () =
  let ok = ref false in
  let (_ : int) =
    (r.exec (fun () ->
         let n = 4 in
         let bar = Barrier.create n in
         let before = Rt.alloc_region 1 and after = Rt.alloc_region 1 in
         let ts =
           List.init n (fun _ ->
               Rt.spawn (fun () ->
                   ignore (Rt.faa before 1);
                   Barrier.wait bar;
                   (* everyone reached the barrier before anyone passed *)
                   if Rt.read before = n then ignore (Rt.faa after 1)))
         in
         List.iter Rt.join ts;
         ok := Rt.read after = n))
  in
  Alcotest.(check bool) "barrier releases only when full" true !ok

(* ------------------------------------------------------------------ *)
(* SMR schemes and data structures                                    *)
(* ------------------------------------------------------------------ *)

module Registry = Ts_scheme.Registry

(* Conformance is driven off the scheme registry: the registry is the
   roster, so a newly registered scheme is covered on both backends by
   construction — no list here to keep in sync. *)
let make_scheme ?(max_threads = 8) id =
  let env = { Registry.max_threads; hazard_slots = 3; epoch_batch = 32; budgets = None } in
  (Registry.build env (Registry.spec ~buffer:16 id)).Registry.smr

let run_scheme_workload r scheme ~threads ~ops =
  let retired = ref 0 and freed = ref 0 in
  let faults =
    r.exec (fun () ->
        let smr = make_scheme scheme in
        smr.Smr.thread_init ();
        let ds = Ts_ds.Michael_list.create ~smr () in
        for k = 0 to 15 do
          ignore (ds.Ts_ds.Set_intf.insert k k)
        done;
        let ws =
          List.init threads (fun _ ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 8);
                  for _ = 1 to ops do
                    let key = Rt.rand_below 32 in
                    match Rt.rand_below 3 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        retired := Smr.retired smr;
        freed := Smr.freed smr)
  in
  (faults, !retired, !freed)

let test_scheme r (d : Registry.descriptor) () =
  let faults, retired, freed = run_scheme_workload r d.Registry.id ~threads:4 ~ops:250 in
  check "no memory faults" 0 faults;
  Alcotest.(check bool) "some nodes were retired" true (retired > 0);
  if d.Registry.caps.Registry.reclaims then
    check "flush reclaims every retired node" 0 (retired - freed)
  else check "non-reclaiming scheme frees nothing" 0 freed

let make_ds smr = function
  | "list" -> Ts_ds.Michael_list.create ~smr ()
  | "hash" -> Ts_ds.Hash_table.create ~smr ~buckets:32 ()
  | "skiplist" -> Ts_ds.Skiplist.create ~smr ~max_height:6 ()
  | "lazy-list" -> Ts_ds.Lazy_list.create ~smr ()
  | s -> invalid_arg s

let test_ds r kind () =
  let size = ref (-1) and faults = ref (-1) in
  faults :=
    r.exec (fun () ->
        let smr = make_scheme "threadscan" in
        smr.Smr.thread_init ();
        let ds = make_ds smr kind in
        let ws =
          List.init 4 (fun i ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 8);
                  for _ = 1 to 200 do
                    let key = Rt.rand_below 48 in
                    match Rt.rand_below 3 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  (* leave a deterministic residue: thread i owns keys 100+i *)
                  ignore (ds.Ts_ds.Set_intf.insert (100 + i) i);
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        ds.Ts_ds.Set_intf.check ();
        for i = 0 to 3 do
          assert (ds.Ts_ds.Set_intf.contains (100 + i))
        done;
        size := List.length (ds.Ts_ds.Set_intf.to_list ());
        smr.Smr.thread_exit ();
        smr.Smr.flush ());
  check "no memory faults" 0 !faults;
  Alcotest.(check bool) "structure non-empty and consistent" true (!size >= 4)

(* ------------------------------------------------------------------ *)
(* Native-only: ThreadScan stress under real parallelism              *)
(* ------------------------------------------------------------------ *)

let test_native_stress () =
  let module R = Ts_par.Runtime in
  let threads = 8 in
  let cfg =
    { R.default_config with pool = 4; strict_mem = true; max_threads = threads + 2 }
  in
  let retired = ref 0 and freed = ref 0 and phases = ref 0 in
  let res =
    R.run ~config:cfg (fun () ->
        let config =
          { Threadscan.Config.default with max_threads = threads + 2; buffer_size = 24 }
        in
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        let ds = Ts_ds.Michael_list.create ~smr () in
        for k = 0 to 31 do
          ignore (ds.Ts_ds.Set_intf.insert k k)
        done;
        let ws =
          List.init threads (fun _ ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 16);
                  for _ = 1 to 1_500 do
                    let key = Rt.rand_below 64 in
                    match Rt.rand_below 4 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        retired := Smr.retired smr;
        freed := Smr.freed smr;
        phases := Threadscan.phases ts)
  in
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  Alcotest.(check bool) "retirements happened" true (!retired > 100);
  check "no leaked nodes after flush" 0 (!retired - !freed);
  Alcotest.(check bool) "scan phases ran" true (!phases >= 1);
  Alcotest.(check bool) "signals were delivered" true (res.R.run_stats.R.signals_delivered > 0)

let test_native_parallel_speedup_shape () =
  (* Not a perf assertion (CI machines vary; this box may have 1 core):
     just proves a multi-domain pool completes the same workload and
     reports sane wall-clock numbers. *)
  let module R = Ts_par.Runtime in
  let run pool =
    let cfg = { R.default_config with pool; max_threads = 8 } in
    let res =
      R.run ~config:cfg (fun () ->
          let cell = Rt.alloc_region 1 in
          let ws =
            List.init 4 (fun _ ->
                Rt.spawn (fun () ->
                    for _ = 1 to 3_000 do
                      ignore (Rt.faa cell 1)
                    done))
          in
          List.iter Rt.join ws)
    in
    res
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "pool=1 did the work" true (r1.R.run_stats.R.faas = 12_000);
  Alcotest.(check bool) "pool=4 did the work" true (r4.R.run_stats.R.faas = 12_000);
  Alcotest.(check bool) "wall clocks measured" true (r1.R.wall_ns > 0 && r4.R.wall_ns > 0)

(* ------------------------------------------------------------------ *)
(* Native-only: the word store's atomics and the step count            *)
(* ------------------------------------------------------------------ *)

(* [setup] runs on the main thread and returns the body two workers then
   run, released together by a shared counter so their loops overlap on
   the pool's two domains.  The counter is a CAS loop, not [faa], so a
   broken [faa] fails the checks instead of hanging the release; the
   watchdog bounds anything else that hangs. *)
let native_race ?(strict = true) setup =
  let module R = Ts_par.Runtime in
  let res =
    R.run
      ~config:
        { R.default_config with pool = 2; strict_mem = strict; watchdog_ns = 30_000_000_000 }
      (fun () ->
        let body = setup () in
        let ready = Rt.alloc_region 1 in
        let rec arrive () =
          let v = Rt.read ready in
          if not (Rt.cas ready v (v + 1)) then arrive ()
        in
        let ws =
          List.init 2 (fun _ ->
              Rt.spawn (fun () ->
                  arrive ();
                  while Rt.read ready < 2 do
                    Rt.yield ()
                  done;
                  body ()))
        in
        List.iter Rt.join ws)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  res

let test_native_atomic_increments () =
  let n = 100_000 in
  let counters = ref 0 in
  let res =
    native_race (fun () ->
        let w = Rt.malloc 2 in
        counters := w;
        fun () ->
          for _ = 1 to n do
            ignore (Rt.faa w 1)
          done;
          for _ = 1 to n do
            let rec incr () =
              let v = Rt.read (w + 1) in
              if not (Rt.cas (w + 1) v (v + 1)) then incr ()
            in
            incr ()
          done)
  in
  let heap = res.Ts_par.Runtime.heap in
  check "no faults" 0 (Ts_par.Heap.total_faults heap);
  check "faa +1 total is exact" (2 * n) (Ts_par.Heap.read heap !counters);
  check "cas increment total is exact" (2 * n) (Ts_par.Heap.read heap (!counters + 1))

(* Smr counter bumps take no lock: two domains racing 100 k retire and
   free bumps each must still count exactly.  Under a crash plan (its
   trigger read as the victim's bump count) the killed worker's bumps up
   to its death count too: they sit in its domain's cells. *)
let native_smr_counts plan =
  let n = 100_000 in
  let smr = ref None in
  let res =
    native_race (fun () ->
        let s = Smr.make ~name:"count" ~retire:(fun _ _ -> ()) () in
        smr := Some s;
        let c = s.Smr.counters in
        fun () ->
          let me = Rt.self () in
          let death =
            match Ts_util.Fault_plan.parse plan with
            | Ok [ { victims; at = At k; event } ] -> if me <= victims then Some (k, event) else None
            | Ok [] -> None
            | _ -> failwith ("unexpected plan " ^ plan)
          in
          for i = 1 to n do
            Smr.add_retired c 1;
            Smr.add_freed c 1;
            match death with
            | Some (k, event) when i = k -> Ts_util.Fault_plan.inflict me event
            | _ -> ()
          done)
  in
  (res, Option.get !smr)

let test_native_smr_counts_exact () =
  let res, smr = native_smr_counts "none" in
  check "no crash" 0 (List.length res.Ts_par.Runtime.crashed);
  check "retired" 200_000 (Smr.retired smr);
  check "freed" 200_000 (Smr.freed smr);
  check "outstanding" 0 (Smr.outstanding smr)

let test_native_smr_counts_crash () =
  let res, smr = native_smr_counts "crash:1@50000" in
  Alcotest.(check (list int)) "worker 1 was killed" [ 1 ] res.Ts_par.Runtime.crashed;
  check "retired: the survivor's 100 k and the corpse's 50 k" 150_000 (Smr.retired smr);
  check "freed: the same" 150_000 (Smr.freed smr)

let test_native_faa_deltas () =
  let module R = Ts_par.Runtime in
  let deltas = [ -1; -7; 5; max_int; 1; min_int; max_int / 3; -(1 lsl 61); 1 lsl 61; 0; 42 ] in
  let reference = Atomic.make 3 in
  let expected = List.map (fun d -> Atomic.fetch_and_add reference d) deltas in
  let got = ref [] and final = ref 0 in
  let res =
    R.run
      ~config:{ R.default_config with pool = 1 }
      (fun () ->
        let w = Rt.malloc 1 in
        Rt.write w 3;
        got := List.map (fun d -> Rt.faa w d) deltas;
        final := Rt.read w)
  in
  check "no faults" 0 (Ts_par.Heap.total_faults res.R.heap);
  Alcotest.(check (list int)) "faa returns the previous value" expected !got;
  check "final value as Atomic.fetch_and_add leaves it" (Atomic.get reference) !final

(* Both workers free every block: the header CAS lets exactly one free
   of each block through and records the other as a Double_free. *)
let test_native_racing_frees () =
  let blocks = 2_000 in
  let addrs = Array.make blocks 0 in
  let res =
    native_race ~strict:false (fun () ->
        Array.iteri (fun i _ -> addrs.(i) <- Rt.malloc 2) addrs;
        fun () -> Array.iter Rt.free addrs)
  in
  let heap = res.Ts_par.Runtime.heap in
  let stats = Ts_par.Heap.stats heap in
  check "one free per block succeeds" blocks stats.Ts_umem.Alloc.total_frees;
  check "one Double_free per block" blocks (Ts_par.Heap.fault_count heap Ts_umem.Mem.Double_free);
  check "no other fault" blocks (Ts_par.Heap.total_faults heap);
  check "nothing left live" 0 stats.Ts_umem.Alloc.live_blocks;
  Alcotest.(check bool) "every block freed" true (Array.for_all (Ts_par.Heap.is_freed heap) addrs)

let test_native_steps_now () =
  let module R = Ts_par.Runtime in
  let ops = 20_000 in
  let monotone = ref true and joined_gain = ref 0 and read_gain = ref 0 in
  let (_ : R.result) =
    R.run
      ~config:{ R.default_config with pool = 2 }
      (fun () ->
        let w = Rt.malloc 1 in
        let s0 = Rt.steps_now () in
        let worker =
          Rt.spawn (fun () ->
              for _ = 1 to ops do
                ignore (Rt.read w)
              done)
        in
        let last = ref s0 in
        while not (Rt.is_done worker) do
          let s = Rt.steps_now () in
          if s < !last then monotone := false;
          last := s;
          Thread.yield ()
        done;
        Rt.join worker;
        joined_gain := Rt.steps_now () - s0)
  in
  let (_ : R.result) =
    R.run
      ~config:{ R.default_config with pool = 1 }
      (fun () ->
        let w = Rt.malloc 1 in
        let s0 = Rt.steps_now () in
        for _ = 1 to ops do
          ignore (Rt.read w)
        done;
        read_gain := Rt.steps_now () - s0)
  in
  Alcotest.(check bool) "never decreases" true !monotone;
  Alcotest.(check bool) "counts every op of the joined thread" true (!joined_gain >= ops);
  check "one step per read in a single-thread run" ops !read_gain

(* ------------------------------------------------------------------ *)
(* Native-only: the degradation ladder under real-domain faults        *)
(* ------------------------------------------------------------------ *)

(* Mirrors the tstrace Figure-2 setup: workers publish one node each and
   hold it in a frame until released, so the reclaimer must keep those
   nodes alive across the fault. *)
let ladder_fixture ~nthreads ~config ~fault ~after body_extra =
  let module R = Ts_par.Runtime in
  let cfg =
    { R.default_config with pool = 4; strict_mem = true; max_threads = nthreads + 2 }
  in
  let out = ref None in
  let res =
    R.run ~config:cfg (fun () ->
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        let cells = Rt.alloc_region nthreads in
        let stop = Rt.alloc_region 1 in
        let ws =
          List.init nthreads (fun i ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  Frame.with_frame 1 (fun fr ->
                      let p = Ts_umem.Ptr.of_addr (Rt.malloc 3) in
                      Frame.set fr 0 p;
                      Rt.write (cells + i) p;
                      while Rt.read stop = 0 do
                        Rt.advance 20
                      done;
                      Frame.set fr 0 0);
                  smr.Smr.thread_exit ()))
        in
        (* wait until every worker has registered and published its node:
           a fault landing before the victim's thread_init would freeze an
           unregistered thread the ladder never signals or suspects *)
        for i = 0 to nthreads - 1 do
          while Rt.read (cells + i) = 0 do
            Rt.sleep 1_000
          done
        done;
        fault ();
        (* retire the held nodes, then filler: phases must run against
           the faulted worker *)
        for i = 0 to nthreads - 1 do
          let p = Rt.read (cells + i) in
          if not (Ts_umem.Ptr.is_null p) then begin
            Rt.write (cells + i) 0;
            smr.Smr.retire p
          end
        done;
        for _ = 1 to 4 * (Threadscan.config ts).Threadscan.Config.buffer_size do
          smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 3))
        done;
        after ts smr;
        Rt.write stop 1;
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        out :=
          Some
            ( Smr.outstanding smr,
              body_extra ts ))
  in
  let module R = Ts_par.Runtime in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  match !out with None -> Alcotest.fail "body never finished" | Some v -> v

let ladder_config =
  (* budgets small enough that the ladder fires inside a tiny run: the
     ack wait gives up fast, suspects stay suspects (not reaped) while
     the victim is merely frozen *)
  {
    Threadscan.Config.default with
    max_threads = 5;
    buffer_size = 8;
    ack_budget = 2_000;
    suspect_phases = 1_000;
  }

let test_native_ladder_proxy_scan () =
  (* Stall worker 1 forever while it holds a published node: phases must
     go blind, suspect it, proxy-scan its frozen stack (keeping the node
     alive), then see it recover after the explicit release. *)
  let outstanding, (suspects, proxy_scans, recoveries) =
    ladder_fixture ~nthreads:3 ~config:ladder_config
      ~fault:(fun () ->
        Rt.stall 1;
        (* the stall request is polled; wait until the victim is parked *)
        while not (Rt.is_stalled 1) do
          Rt.sleep 1_000
        done)
      ~after:(fun ts smr ->
        Rt.unstall 1;
        (* wake propagates in real time; then force post-wake phases so
           the suspect's returning ack is observed *)
        while Rt.is_stalled 1 do
          Rt.sleep 1_000
        done;
        for _ = 1 to 2 * (Threadscan.config ts).Threadscan.Config.buffer_size do
          smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 3))
        done)
      (fun ts ->
        (Threadscan.suspected_total ts, Threadscan.proxy_scans ts, Threadscan.recoveries ts))
  in
  check "all retired nodes reclaimed after flush" 0 outstanding;
  Alcotest.(check bool) "victim went suspect" true (suspects >= 1);
  Alcotest.(check bool) "frozen victim was proxy-scanned" true (proxy_scans >= 1);
  Alcotest.(check bool) "release was observed as a recovery" true (recoveries >= 1)

let test_native_ladder_reap_readmit () =
  (* Crash worker 1 mid-hold: the ladder must reap the corpse (dropping
     its pin) and a later thread re-admits cleanly into the same scheme. *)
  let readmitted = ref false in
  let outstanding, reaps =
    ladder_fixture ~nthreads:3
      ~config:{ ladder_config with suspect_phases = 2 }
      ~fault:(fun () ->
        Rt.crash 1;
        (* the kill is polled; wait until the victim is an observable corpse *)
        while not (Rt.is_done 1) do
          Rt.sleep 1_000
        done)
      ~after:(fun _ts smr ->
        (* re-admit: a fresh thread joins the scheme after the reap and
           works normally *)
        let w =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to 8 do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.thread_exit ())
        in
        Rt.join w;
        readmitted := true)
      (fun ts -> Threadscan.reaps ts)
  in
  check "all retired nodes reclaimed after flush" 0 outstanding;
  Alcotest.(check bool) "corpse was reaped" true (reaps >= 1);
  Alcotest.(check bool) "fresh thread re-admitted after the reap" true !readmitted

let test_native_ladder_heartbeat_takeover () =
  (* The reclaimer itself stalls forever mid-phase (injected): another
     retiring worker must watch its heartbeat go stale, wrest the phase
     lock, and finish reclamation; the eventual release resumes the old
     reclaimer into the generation fence. *)
  let module R = Ts_par.Runtime in
  let cfg = { R.default_config with pool = 4; strict_mem = true; max_threads = 6 } in
  let takeovers = ref 0 and outstanding = ref (-1) in
  let res =
    R.run ~config:cfg (fun () ->
        let config =
          {
            ladder_config with
            Threadscan.Config.takeover_steps = 50;
            ack_budget = 1_000;
          }
        in
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        Threadscan.set_inject ts Threadscan.Stall_mid_phase;
        let bsz = config.Threadscan.Config.buffer_size in
        (* tid 1 fills its buffer then flushes: it becomes the reclaimer
           with nothing in flight (a node still in retire's hand when the
           takeover kills its owner is leaked by design) and stalls
           mid-phase; tid 2 keeps retiring and must take the orphaned
           phase lock over.  The takeover declares t1 dead and kills it,
           so its thread_exit never runs: the reap deregisters it. *)
        let w1 =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to bsz do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.flush ();
              smr.Smr.thread_exit ())
        in
        while not (Rt.is_stalled 1) do
          Rt.sleep 1_000
        done;
        let w2 =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to 4 * bsz do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.thread_exit ())
        in
        Rt.join w2;
        (* release the ex-reclaimer: the takeover already declared it
           dead, so it wakes straight into the kill *)
        Rt.unstall 1;
        Rt.join w1;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        takeovers := Threadscan.takeovers ts;
        outstanding := Smr.outstanding smr)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  Alcotest.(check bool) "phase lock was taken over" true (!takeovers >= 1);
  check "all retired nodes reclaimed after flush" 0 !outstanding

(* ------------------------------------------------------------------ *)

let per_backend name f =
  List.map
    (fun r -> Alcotest.test_case (Fmt.str "%s [%s]" name r.rname) `Quick (fun () -> f r ()))
    runners

let ds_kinds = [ "list"; "hash"; "skiplist"; "lazy-list" ]

let () =
  Alcotest.run "backends"
    [
      ( "rt-core",
        per_backend "memory roundtrip + uaf" test_memory_roundtrip
        @ per_backend "cas/faa" test_atomics
        @ per_backend "double free detected" test_double_free_detected
        @ per_backend "frames" test_frames
        @ per_backend "clock + rand" test_clock_and_rand
        @ per_backend "spawn/join" test_spawn_join
        @ per_backend "signal delivery" test_signal_delivery
        @ per_backend "unknown tid fails the caller" test_unknown_tid_fails_caller );
      ( "scan-words",
        per_backend "yields and charges what a read loop does" test_scan_words_matches_read
        @ per_backend "len <= 0 is a no-op" test_scan_words_empty
        @ [
            Alcotest.test_case "freed block faults like read [native]" `Quick
              test_native_scan_words_uaf;
          ] );
      ( "sync",
        per_backend "spinlock" test_spinlock
        @ per_backend "ticket lock" test_ticket_lock
        @ per_backend "barrier" test_barrier );
      ( "smr",
        List.concat_map
          (fun d -> per_backend d.Registry.id (fun r -> test_scheme r d))
          Registry.all );
      ("ds", List.concat_map (fun k -> per_backend k (fun r -> test_ds r k)) ds_kinds);
      ( "native-stress",
        [
          Alcotest.test_case "threadscan retire/scan/free under parallelism" `Quick
            test_native_stress;
          Alcotest.test_case "multi-domain pool completes work" `Quick
            test_native_parallel_speedup_shape;
        ] );
      ( "native-words",
        [
          Alcotest.test_case "racing faa and cas increments are exact" `Quick
            test_native_atomic_increments;
          Alcotest.test_case "faa deltas match Atomic.fetch_and_add" `Quick
            test_native_faa_deltas;
          Alcotest.test_case "racing frees: one succeeds, one Double_free" `Quick
            test_native_racing_frees;
          Alcotest.test_case "steps_now is monotone and counts every op" `Quick
            test_native_steps_now;
          Alcotest.test_case "racing Smr counter bumps are exact" `Quick
            test_native_smr_counts_exact;
          Alcotest.test_case "a crashed worker's Smr bumps still count" `Quick
            test_native_smr_counts_crash;
        ] );
      ( "native-ladder",
        [
          Alcotest.test_case "proxy scan keeps a stalled holder's node alive" `Quick
            test_native_ladder_proxy_scan;
          Alcotest.test_case "crash is reaped and a fresh thread re-admits" `Quick
            test_native_ladder_reap_readmit;
          Alcotest.test_case "heartbeat takeover of a stalled reclaimer" `Quick
            test_native_ladder_heartbeat_takeover;
        ] );
    ]
