module Config = Config
module Delete_buffer = Delete_buffer
module Master_buffer = Master_buffer
module Runtime = Ts_rt
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr
module Backoff = Ts_sync.Backoff

type inject =
  | No_fault
  | Skip_carryover
  | Skip_ack_wait
  | Skip_proxy_scan
  | Crash_mid_phase
  | Stall_mid_phase
      (* stall-forever at the same point Crash_mid_phase kills: the
         reclaimer freezes holding the phase lock, so workers must
         heartbeat-takeover; an eventual [Ts_rt.unstall] resumes it into
         a generation-fence abort *)

type t = {
  cfg : Config.t;
  buffers : Delete_buffer.t array;
  master : Master_buffer.t;
  owner_addr : int; (* phase lock: 0 free, else holder tid + 1 *)
  beat_addr : int; (* heartbeat: step stamp of the holder's last progress *)
  gen_addr : int; (* phase generation: bumped on commit and on takeover *)
  phase_addr : int; (* current phase id, written by the reclaimer *)
  acks_base : int; (* acks_base + tid: last phase acknowledged *)
  registered_base : int; (* registered_base + tid: participation flag *)
  (* Degradation-ladder state, owned by whoever holds the phase lock. *)
  suspect_since : int array; (* phase at which tid went suspect; -1 clear *)
  suspect_ack : int array; (* ack value at suspicion, to detect recovery *)
  suspect_silent : int array; (* consecutive silent phases while suspect *)
  reaped : bool array;
  mutable overflow : int list; (* backpressure: parked retirements *)
  mutable smr_self : Smr.t option;
  mutable phases : int;
  mutable signals : int;
  mutable carried : int;
  mutable scan_words : int;
  mutable scan_hits : int;
  mutable full_waits : int;
  phase_latencies : Ts_util.Vec.t; (* cycles spent inside each do_phase *)
  mutable ack_timeouts : int; (* phases whose ack wait exhausted the budget *)
  mutable carried_blind : int; (* entries carried because a phase was blind *)
  mutable suspected_total : int;
  mutable recoveries : int; (* suspects that acked again and were cleared *)
  mutable reaps : int;
  mutable adopted : int; (* buffered retirements adopted from reaped threads *)
  mutable proxy_scans : int; (* stacks scanned by the reclaimer on behalf *)
  mutable takeovers : int; (* phase locks wrested from stale reclaimers *)
  mutable gen_aborts : int; (* sweeps aborted by the generation fence *)
  mutable overflow_pushes : int; (* retirements parked by backpressure *)
  mutable inject : inject; (* deliberate protocol bug, for checker validation *)
}

let smr t = Option.get t.smr_self
let counters t = (smr t).Smr.counters

(* ------------------------------------------------------------------ *)
(* Phase lock: a raw owner word so waiters can identify (and, past the
   heartbeat budget, replace) a dead holder — a Spinlock's anonymous 0/1
   word cannot support takeover.                                       *)
(* ------------------------------------------------------------------ *)

let try_acquire t =
  Runtime.read t.owner_addr = 0 && Runtime.cas t.owner_addr 0 (Runtime.self () + 1)

let release t = Runtime.write t.owner_addr 0

let heartbeat t = Runtime.write t.beat_addr (Runtime.steps_now ())

(* Watchdog: a waiter that has watched the same holder make zero heartbeat
   progress for [takeover_steps] scheduler steps declares it dead, kills it
   (it must never wake up mid-sweep believing it still owns the phase) and
   adopts the lock.  The generation bump fences any state the orphaned
   phase left behind.  The [owner_seen]/[beat_seen]/[seen_at] refs persist
   across the caller's wait rounds: staleness is measured from the first
   observation of an unchanged (owner, beat) pair, so a freshly acquired
   lock is never mistaken for a stale one. *)
let check_takeover t owner_seen beat_seen seen_at =
  t.cfg.takeover_steps > 0
  &&
  let o = Runtime.read t.owner_addr in
  if o = 0 then begin
    owner_seen := 0;
    false
  end
  else begin
    let bt = Runtime.read t.beat_addr in
    let s = Runtime.steps_now () in
    if o <> !owner_seen || bt <> !beat_seen then begin
      owner_seen := o;
      beat_seen := bt;
      seen_at := s;
      false
    end
    else if s - !seen_at <= t.cfg.takeover_steps then false
    else begin
      let victim = o - 1 in
      Runtime.crash victim;
      if Runtime.cas t.owner_addr o (Runtime.self () + 1) then begin
        t.takeovers <- t.takeovers + 1;
        Master_buffer.renew_scratch t.master;
        ignore (Runtime.faa t.gen_addr 1);
        Runtime.note (Fmt.str "took over the phase lock from stale reclaimer t%d" victim);
        true
      end
      else begin
        (* another waiter won the takeover race *)
        owner_seen := 0;
        false
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* TS-Scan: the signal-handler side (Algorithm 1, lines 18-26)         *)
(* ------------------------------------------------------------------ *)

(* The bounds are read once per range: they only change under a new count,
   and a scan that raced a publish is not counted for the new phase anyway.
   The backend op tests each word against the window, so the common case —
   a word pointing at no retired node — never reaches the closure.  [lo]
   and [hi] are masked entries, so the raw words whose mask lies in
   [lo, hi] are exactly [lo .. hi lor 7].  The counters live in [t], which
   the reclaimer and every signalled scanner share, so they are added once
   per range from locals rather than bumped per word. *)
let scan_range t (base, len) =
  let lo, hi = Master_buffer.bounds t.master in
  let hits = ref 0 in
  Runtime.scan_words base len ~lo ~hi:(hi lor 7) (fun w ->
      let idx = Master_buffer.find t.master (Ptr.mask w) in
      if idx >= 0 then begin
        Master_buffer.mark t.master idx;
        incr hits
      end);
  if len > 0 then t.scan_words <- t.scan_words + len;
  t.scan_hits <- t.scan_hits + !hits

let ts_scan t =
  (* Read the phase *before* scanning: if the reclaimer gave up waiting and
     published a new phase while we scan, we must not claim to have covered
     a master buffer we may never have seen. *)
  let phase = Runtime.read t.phase_addr in
  if Master_buffer.count t.master > 0 then begin
    let sbase, sp = Runtime.stack_range () in
    scan_range t (sbase, sp - sbase);
    scan_range t (Runtime.saved_reg_range ());
    List.iter (scan_range t) (Runtime.private_ranges ())
  end;
  (* Acknowledge: publish the phase we scanned for. *)
  Runtime.write (t.acks_base + Runtime.self ()) phase

(* ------------------------------------------------------------------ *)
(* TS-Collect: the reclaimer side (Algorithm 1, lines 1-16), in four
   stages — collect, handshake, degradation ladder, sweep.  The caller
   holds the phase lock throughout.                                    *)
(* ------------------------------------------------------------------ *)

let registered t u = Runtime.read (t.registered_base + u) <> 0

(* Stage 1, collect: adopt the retirements parked on the overflow list,
   aggregate every thread's delete buffer into the master buffer (on top of
   the previous phase's carry-over), publish it sorted, and open the next
   phase, whose id is returned.  If the master fills up, the rest simply
   stays buffered (or parked) for the next phase. *)
let collect t =
  (* The snapshot swap is atomic (no effect between the read and the
     reset); whatever does not fit goes back on the list. *)
  let parked =
    Runtime.critical (fun () ->
        let parked = t.overflow in
        t.overflow <- [];
        parked)
  in
  let rejected = List.filter (fun p -> not (Master_buffer.append t.master p)) parked in
  if rejected <> [] then Runtime.critical (fun () -> t.overflow <- rejected @ t.overflow);
  Array.iter (Master_buffer.drain_from t.master) t.buffers;
  Master_buffer.publish_sorted t.master;
  let phase = Runtime.read t.phase_addr + 1 in
  Runtime.write t.phase_addr phase;
  phase

(* Bounded ack wait.  Returns [(timed_out, departed)]: [timed_out] are
   still-registered threads that made no ack within the budget (the phase
   must go blind); [departed] are threads observed dead while registered —
   they crashed without deregistering and can never ack, so waiting on them
   is pointless and they are reaped immediately. *)
let wait_for_acks t phase signaled =
  Runtime.set_wait_note (Some (fun () -> Fmt.str "ack wait: phase %d" phase));
  let budget = t.cfg.ack_budget in
  let t0 = Runtime.now () in
  let b = Backoff.create () in
  let pending = ref signaled in
  let departed = ref [] in
  let timed_out = ref [] in
  while !pending <> [] do
    pending :=
      List.filter
        (fun u ->
          if Runtime.read (t.acks_base + u) = phase || not (registered t u) then false
          else if Runtime.is_done u then begin
            departed := u :: !departed;
            false
          end
          else true)
        !pending;
    if !pending <> [] then begin
      heartbeat t;
      if budget > 0 && Runtime.now () - t0 > budget then begin
        timed_out := !pending;
        pending := []
      end
      else Backoff.once b
    end
  done;
  Runtime.set_wait_note None;
  (!timed_out, !departed)

(* Stage 2, handshake: signal all other registered, non-suspect threads,
   scan ourselves, then wait (bounded) for their acks.  Suspects are not
   signaled (their handlers are not draining the queue; more signals only
   pile up) — the proxy scan of the ladder covers them, and the signal they
   already missed delivers on wake-up, whose ack is how we detect recovery.
   Returns {!wait_for_acks}'s [(timed_out, departed)]. *)
let handshake t ~self phase =
  let signaled = ref [] in
  for u = 0 to t.cfg.max_threads - 1 do
    if u <> self && registered t u && t.suspect_since.(u) < 0 then begin
      Runtime.signal u;
      t.signals <- t.signals + 1;
      signaled := u :: !signaled
    end
  done;
  ts_scan t;
  if t.inject = Crash_mid_phase then begin
    t.inject <- No_fault;
    Runtime.note "injected reclaimer crash mid-phase";
    Runtime.crash self
  end;
  if t.inject = Stall_mid_phase then begin
    t.inject <- No_fault;
    Runtime.note "injected reclaimer stall mid-phase";
    Runtime.stall self
  end;
  if t.inject = Skip_ack_wait then ([], []) else wait_for_acks t phase !signaled

let mark_suspect t phase u =
  if t.suspect_since.(u) < 0 then begin
    t.suspect_since.(u) <- phase;
    t.suspect_ack.(u) <- Runtime.read (t.acks_base + u);
    t.suspect_silent.(u) <- 0;
    t.suspected_total <- t.suspected_total + 1;
    Runtime.note (Fmt.str "phase %d: t%d is suspect (no ack within budget)" phase u)
  end

let reap t phase u reason =
  t.reaped.(u) <- true;
  t.suspect_since.(u) <- -1;
  Runtime.write (t.registered_base + u) 0;
  (* Its buffered retirements are adopted by the normal aggregation path of
     the next phase; count them now, while the buffer is still its own. *)
  t.adopted <- t.adopted + Delete_buffer.size t.buffers.(u);
  t.reaps <- t.reaps + 1;
  Runtime.note (Fmt.str "phase %d: reaped t%d (%s)" phase u reason)

(* Stage 3, the degradation ladder (docs/FAULTS.md): reap, suspect, recover,
   proxy-scan.  Returns whether the phase is blind — some signaled thread
   never confirmed its scan, or a suspect could not be safely proxy-scanned,
   so no entry is provably unreferenced. *)
let ladder t phase ~timed_out ~departed =
  (* Rung 3: a thread observed dead while still registered can never ack or
     deregister — reap immediately. *)
  List.iter (fun u -> reap t phase u "crashed while registered") departed;
  (* Rung 1→2: non-ackers become suspects; the phase goes blind below. *)
  List.iter (mark_suspect t phase) timed_out;
  (* Suspect bookkeeping: recovery (its ack moved: the missed signal finally
     delivered) or reaping after [suspect_phases] silent phases. *)
  let stale_recovery = ref false in
  for u = 0 to t.cfg.max_threads - 1 do
    if t.suspect_since.(u) >= 0 then begin
      if Runtime.is_done u then begin
        if Runtime.is_crashed u then reap t phase u "crashed while suspect"
        else t.suspect_since.(u) <- -1 (* exited normally; deregistered itself *)
      end
      else if Runtime.read (t.acks_base + u) <> t.suspect_ack.(u) then begin
        t.suspect_since.(u) <- -1;
        t.recoveries <- t.recoveries + 1;
        (* The ack that moved may be for an *older* phase: the signal it
           missed while frozen delivers on wake, and its handler scans
           whatever master was published when it read the phase word —
           possibly the previous one.  Only an ack tagged with the current
           phase proves its scan covered this master; a recovered thread
           whose references were never marked here means the sweep would
           free nodes it still holds, so the phase goes blind. *)
        if Runtime.read (t.acks_base + u) <> phase then begin
          stale_recovery := true;
          Runtime.note
            (Fmt.str "phase %d: t%d recovered on a stale ack; phase goes blind" phase u)
        end
        else Runtime.note (Fmt.str "phase %d: t%d recovered (acked again)" phase u)
      end
      else begin
        t.suspect_silent.(u) <- t.suspect_silent.(u) + 1;
        if t.suspect_silent.(u) >= t.cfg.suspect_phases then
          reap t phase u (Fmt.str "silent for %d phases" t.suspect_silent.(u))
      end
    end
  done;
  if timed_out <> [] then t.ack_timeouts <- t.ack_timeouts + 1;
  (* Proxy scan: walk each suspect's (and each reaped-but-alive thread's)
     last-known stack, register contexts and private ranges on its behalf,
     marking what it still holds.  Its stack cannot grow new references to
     retired nodes (retire happens after unlink), so this conservative scan
     is as sound as the thread's own handler scan — but only while the
     subject is frozen.  A suspect observed *running* (or waking mid-scan,
     caught by its clock advancing) could move a pointer between two words
     we already passed, so the phase goes blind instead.  A reaped thread
     found running again is re-admitted to the protocol: it is alive after
     all, and being signaled and acking like everyone else beats blinding
     every phase on its account.  Once a thread is actually dead its pins
     are dropped (nothing can ever read them again). *)
  let blind = ref (timed_out <> [] || !stale_recovery) in
  if t.inject <> Skip_proxy_scan then
    for u = 0 to t.cfg.max_threads - 1 do
      if (t.suspect_since.(u) >= 0 || t.reaped.(u)) && not (Runtime.is_done u) then
        if Runtime.is_stalled u then begin
          let c0 = Runtime.clock_of u in
          List.iter (scan_range t) (Runtime.scan_ranges_of u);
          t.proxy_scans <- t.proxy_scans + 1;
          Runtime.note (Fmt.str "phase %d: proxy-scanned frozen t%d on its behalf" phase u);
          if Runtime.clock_of u <> c0 then begin
            blind := true;
            Runtime.note (Fmt.str "phase %d: t%d woke mid-proxy-scan; phase goes blind" phase u)
          end
        end
        else begin
          blind := true;
          Runtime.note
            (Fmt.str "phase %d: t%d is a running suspect (unscannable); phase goes blind" phase u);
          if t.reaped.(u) then begin
            t.reaped.(u) <- false;
            t.suspect_silent.(u) <- 0;
            Runtime.write (t.registered_base + u) 1;
            t.recoveries <- t.recoveries + 1;
            Runtime.note (Fmt.str "phase %d: t%d woke after reap; re-admitted" phase u)
          end
        end
    done;
  !blind

(* Stage 4, sweep: free every unmarked entry and carry the marked ones
   over. *)
let sweep t phase ~blind ~my_gen =
  if blind then begin
    (* Rung 1: free nothing; carry the entire master buffer over.  This
       single rule closes every late-scanner race a bounded wait opens. *)
    t.carried <- Master_buffer.count t.master;
    t.carried_blind <- t.carried_blind + t.carried;
    Runtime.note (Fmt.str "phase %d: blind; carrying all %d entries" phase t.carried)
  end
  else if not (Runtime.cas t.gen_addr my_gen (my_gen + 1)) then begin
    (* Generation fence: the phase was taken over under us (we were presumed
       dead but are somehow still here).  Our view is stale — abort without
       freeing anything. *)
    t.gen_aborts <- t.gen_aborts + 1;
    t.carried <- Master_buffer.count t.master;
    Runtime.note (Fmt.str "phase %d: generation fence failed; sweep aborted" phase)
  end
  else begin
    let ignore_marks = t.inject = Skip_carryover in
    let c = counters t in
    t.carried <-
      Master_buffer.sweep ~ignore_marks t.master (fun p ->
          Runtime.free (Ptr.addr p);
          Smr.add_freed c 1)
  end

(* One reclamation phase.  Caller holds the phase lock. *)
let do_phase t =
  let phase_start = Runtime.now () in
  let self = Runtime.self () in
  heartbeat t;
  (* Snapshot our register context before the aggregation loop clobbers the
     register file with buffered pointers. *)
  Runtime.save_regs ();
  t.phases <- t.phases + 1;
  Smr.add_cleanups (counters t) 1;
  let my_gen = Runtime.read t.gen_addr in
  let phase = collect t in
  heartbeat t;
  let timed_out, departed = handshake t ~self phase in
  heartbeat t;
  let blind = ladder t phase ~timed_out ~departed in
  sweep t phase ~blind ~my_gen;
  heartbeat t;
  Ts_util.Vec.push t.phase_latencies (Runtime.now () - phase_start)

let run_phase_locked t =
  match do_phase t with
  | () -> release t
  | exception e ->
      release t;
      raise e

(* ------------------------------------------------------------------ *)
(* The SMR-facing hooks                                                *)
(* ------------------------------------------------------------------ *)

let max_phase_latency t =
  let m = ref 0 in
  Ts_util.Vec.iter (fun d -> if d > !m then m := d) t.phase_latencies;
  !m

let total_phase_cycles t =
  let sum = ref 0 in
  Ts_util.Vec.iter (fun d -> sum := !sum + d) t.phase_latencies;
  !sum

let avg_phase_latency t =
  let n = Ts_util.Vec.length t.phase_latencies in
  if n = 0 then 0 else total_phase_cycles t / n

(* A full buffer: reclaim, wait for the reclaimer, or park, then try the
   buffer again; the same effects in the same order as retrying the push
   first, so only this path builds the backoff and the takeover refs. *)
let retire_full t tid masked =
  let b = Backoff.create () in
  let rounds = ref 0 in
  let owner_seen = ref 0 and beat_seen = ref 0 and seen_at = ref 0 in
  let done_ = ref false in
  while not !done_ do
    if try_acquire t then begin
      (* Full buffer: become the reclaimer. *)
      run_phase_locked t;
      Backoff.reset b;
      rounds := 0
    end
    else if check_takeover t owner_seen beat_seen seen_at then begin
      (* The active reclaimer is dead; we adopted the phase lock. *)
      run_phase_locked t;
      Backoff.reset b;
      rounds := 0
    end
    else if t.cfg.overflow_after > 0 && !rounds >= t.cfg.overflow_after then begin
      (* Hard backpressure bound: park the pointer on the shared overflow
         list (adopted by the next phase) instead of blocking forever on a
         degraded reclaimer. *)
      Runtime.critical (fun () -> t.overflow <- masked :: t.overflow);
      t.overflow_pushes <- t.overflow_pushes + 1;
      done_ := true
    end
    else begin
      (* Wait for the active reclaimer — by the time the lock is free our
         buffer has usually been drained. *)
      t.full_waits <- t.full_waits + 1;
      Backoff.once b;
      incr rounds
    end;
    if not !done_ then done_ := Delete_buffer.push t.buffers.(tid) masked
  done

let retire t (c : Smr.counters) p =
  Smr.add_retired c 1;
  let tid = Runtime.self () in
  let masked = Ptr.mask p in
  if not (Delete_buffer.push t.buffers.(tid) masked) then retire_full t tid masked

let thread_init t () =
  let tid = Runtime.self () in
  if tid >= t.cfg.max_threads then invalid_arg "Threadscan: tid exceeds max_threads";
  (* A reused tid starts with a clean fault record. *)
  t.suspect_since.(tid) <- -1;
  t.suspect_silent.(tid) <- 0;
  t.reaped.(tid) <- false;
  Runtime.set_signal_handler (fun () -> ts_scan t);
  Runtime.write (t.registered_base + tid) 1

let thread_exit t () =
  let tid = Runtime.self () in
  t.suspect_since.(tid) <- -1;
  Runtime.write (t.registered_base + tid) 0

(* Quiesce after all workers exited: run phases until nothing more can be
   freed.  Anything still pinned by the caller's own (conservatively
   scanned) stack — or by the proxy-scanned stack of a thread stalled
   forever — stays allocated. *)
let flush t () =
  if not (try_acquire t) then begin
    Runtime.set_wait_note (Some (fun () -> "waiting for the phase lock"));
    let b = Backoff.create () in
    let owner_seen = ref 0 and beat_seen = ref 0 and seen_at = ref 0 in
    while
      (not (try_acquire t)) && not (check_takeover t owner_seen beat_seen seen_at)
    do
      Backoff.once b
    done;
    Runtime.set_wait_note None
  end;
  let continue_ = ref true in
  while !continue_ do
    (* Drop conservative pins left in our own register file by the previous
       iteration's sweep (the caller holds no node references here). *)
    Runtime.clear_regs ();
    let before = Smr.freed (smr t) in
    do_phase t;
    let buffered = Array.exists (fun b -> Delete_buffer.size b > 0) t.buffers in
    (* Keep going only while the last phase made progress: whatever remains
       is pinned by a conservatively-scanned stack. *)
    continue_ :=
      (buffered || t.carried > 0 || t.overflow <> []) && Smr.freed (smr t) > before
  done;
  release t

let create ?(config = Config.default) () =
  Config.validate config;
  (* Room for every thread's full buffer, plus slack for carried and
     parked entries. *)
  let master_cap = (config.max_threads * config.buffer_size) + 1024 in
  let t =
    {
      cfg = config;
      buffers =
        Array.init config.max_threads (fun _ -> Delete_buffer.create ~capacity:config.buffer_size);
      master = Master_buffer.create ~capacity:master_cap;
      owner_addr = Runtime.alloc_region 1;
      beat_addr = Runtime.alloc_region 1;
      gen_addr = Runtime.alloc_region 1;
      phase_addr = Runtime.alloc_region 1;
      acks_base = Runtime.alloc_region config.max_threads;
      registered_base = Runtime.alloc_region config.max_threads;
      suspect_since = Array.make config.max_threads (-1);
      suspect_ack = Array.make config.max_threads 0;
      suspect_silent = Array.make config.max_threads 0;
      reaped = Array.make config.max_threads false;
      overflow = [];
      smr_self = None;
      phases = 0;
      signals = 0;
      carried = 0;
      scan_words = 0;
      scan_hits = 0;
      full_waits = 0;
      phase_latencies = Ts_util.Vec.create ();
      ack_timeouts = 0;
      carried_blind = 0;
      suspected_total = 0;
      recoveries = 0;
      reaps = 0;
      adopted = 0;
      proxy_scans = 0;
      takeovers = 0;
      gen_aborts = 0;
      overflow_pushes = 0;
      inject = No_fault;
    }
  in
  let smr =
    Smr.make ~name:"threadscan" ~thread_init:(thread_init t) ~thread_exit:(thread_exit t)
      ~flush:(flush t)
      ~extras:(fun () ->
        [
          ("phases", t.phases);
          ("signals", t.signals);
          ("carried", t.carried);
          ("scan-words", t.scan_words);
          ("scan-hits", t.scan_hits);
          ("full-waits", t.full_waits);
          ("max-phase-latency", max_phase_latency t);
          ("avg-phase-latency", avg_phase_latency t);
          ("ack-timeouts", t.ack_timeouts);
          ("carried-blind", t.carried_blind);
          ("suspects", t.suspected_total);
          ("recoveries", t.recoveries);
          ("reaps", t.reaps);
          ("adopted", t.adopted);
          ("proxy-scans", t.proxy_scans);
          ("takeovers", t.takeovers);
          ("gen-aborts", t.gen_aborts);
          ("overflow-pushes", t.overflow_pushes);
          ("phase-cycles", total_phase_cycles t);
        ])
      ~retire:(retire t) ()
  in
  t.smr_self <- Some smr;
  t

let config t = t.cfg

let add_heap_block ~start_addr ~len = Runtime.add_private_range start_addr len

let remove_heap_block ~start_addr ~len = Runtime.remove_private_range start_addr len

let phases t = t.phases

let signals_sent t = t.signals

let carried_last t = t.carried

let scan_words t = t.scan_words

let full_waits t = t.full_waits

let outstanding t = Smr.outstanding (smr t)

let ack_timeouts t = t.ack_timeouts

let carried_blind t = t.carried_blind

let suspected_total t = t.suspected_total

let recoveries t = t.recoveries

let reaps t = t.reaps

let adopted t = t.adopted

let proxy_scans t = t.proxy_scans

let takeovers t = t.takeovers

let gen_aborts t = t.gen_aborts

let overflow_pushes t = t.overflow_pushes

let set_inject t inject = t.inject <- inject

let inject t = t.inject
