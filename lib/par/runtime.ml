(* Native execution backend: real OCaml 5 domains.

   Logical threads keep the simulator's numbering (spawn order, main =
   tid 0) but execute as systhreads pinned round-robin onto a pool of
   domains — [pool] counts execution cores, like the sim's [cores], so
   requesting more threads than domains oversubscribes honestly instead
   of dying on `Domain.spawn` limits.  Within a domain systhreads
   time-share; across domains they run genuinely in parallel.

   The paper's POSIX signal is a per-thread pending counter polled at
   every op boundary (the safepoint-latched delivery DESIGN.md §2 argues
   is the faithful OCaml substitution): delivery saves the register
   file, runs the handler (nesting allowed), and sigreturn-restores the
   interrupted context — observationally the same protocol as the sim,
   at op-boundary granularity.

   Every thread still owns a shadow stack and register file inside the
   unmanaged heap, and every load mirrors its value into the register
   ring, so conservative scans stay sound: a pointer "in flight" between
   a load and its frame store is visible to TS-Scan here exactly as in
   the sim.  The scan's own loads ([scan_words]) are the exception: they
   are compared and never stored, so none is ever in flight.

   Memory model.  Shared heap words are sequentially consistent (see
   {!Heap}).  A thread's own words — shadow stack, register ring, manual
   save area, signal save areas — take plain stores: [mirror], a private
   [op_write], [push_frame] zeroing, [clear_regs], [save_regs] and the
   save/restore copies around a handler.  Only the owner ever writes
   them, and every other read of them happens after those stores:

   - the owner's own handler runs inline on the owner, so program order
     covers it;
   - a proxy scan reads a thread only after observing [stalled_flag =
     true] with an SC load ([op_is_stalled]).  [park] raises the flag
     with an SC store that follows every store the victim made before
     parking, so the scan sees them all.  Stores made after waking
     follow the SC store that lowers the flag and the clock bump before
     it, so a scan that could have seen one also sees the clock move
     ([op_clock_of]) and is discarded;
   - a dead thread's words are read only after an SC load of [finished]
     returns [true]; [thread_body] sets it last, after every op the
     thread ran.

   A scan of the owner's own words is a plain load too: [op_scan_words]
   over a range wholly inside the caller's stack or register ring (a
   handler's scan of its own stack).  The owner made every store there
   itself, earlier in program order, so a plain load sees the latest.
   Both are permanent regions, so the shadow check a checked load would
   make can never fire.  Other ranges (save areas, private heap ranges,
   a proxy scan of another thread) keep the checked, SC [Heap.read].

   Virtual clocks survive: each op charges the shared {!Ts_rt.Cost_model}
   price to the calling thread's private clock, so horizon-bounded
   workload loops ([now () < deadline]) run unchanged and figure runs
   report both virtual-cycle and wall-clock throughput.

   Fault injection mirrors the sim's surface at safepoint granularity:
   [crash] and [stall] of another thread are latched into the target's
   padded flag cells and delivered at its next poll — a stalled thread
   parks (OS-level sleep loop) with an SC [stalled_flag] raised, so
   [is_stalled]/[clock_of] give the reclaimer's proxy-scan ladder the
   same frozen-victim guarantee the sim provides: while the flag reads
   [true] the victim performs no ops, and the flag's release/acquire
   pair publishes the wake-time clock bump before any post-wake op can
   be observed.  Stall durations are scaled to wall time by
   [config.stall_ns_per_cycle]; stall-forever parks until [unstall],
   [crash], or the liveness watchdog ([config.watchdog_ns]) fires.

   What does NOT carry over from the sim: determinism (the OS schedules),
   schedule exploration (Uniform/PCT), and faults are delivered at the
   victim's next safepoint rather than between two arbitrary ops.
   docs/BACKENDS.md tabulates this. *)

module Cost_model = Ts_rt.Cost_model
module Splitmix = Ts_util.Splitmix

type tid = int

(* Stall deadlines, signal-delay windows, the watchdog and [wall_ns] all
   read CLOCK_MONOTONIC (words_stubs.c), which never steps with the wall
   clock. *)
external now_ns : unit -> (int[@untagged]) = "ts_par_monotonic_ns_byte" "ts_par_monotonic_ns"
[@@noalloc]

exception Par_error of string
exception Thread_failure of tid * exn

(* Raised inside a logical thread killed by [crash]; caught by the
   thread wrapper, never by user code. *)
exception Killed

type config = {
  cost : Cost_model.t;
  pool : int;  (** domains in the pool; [<= 0] = [Domain.recommended_domain_count ()] *)
  seed : int;  (** per-thread rng streams derive from it *)
  stack_words : int;
  reg_words : int;
  mem_capacity : int;  (** words; fixed at creation (the native heap cannot grow) *)
  strict_mem : bool;
  max_threads : int;
  propagate_failures : bool;
  stall_ns_per_cycle : float;
      (** wall-time value of one virtual cycle for [stall]/[sleep]/signal
          delays *)
  watchdog_ns : int;
      (** kill every unfinished thread and mark the run wedged if it is
          still going after this much wall time; [0] disables *)
}

let default_config =
  {
    cost = Cost_model.default;
    pool = 0;
    seed = 0x5EED;
    stack_words = 256;
    reg_words = 32;
    mem_capacity = 1 lsl 21;
    strict_mem = true;
    max_threads = 128;
    propagate_failures = true;
    stall_ns_per_cycle = 100.0;
    watchdog_ns = 0;
  }

type stats = {
  reads : int;
  writes : int;
  cas_ops : int;
  faas : int;
  fences : int;
  mallocs : int;
  frees : int;
  yields : int;
  signals_sent : int;
  signals_delivered : int;
  spawns : int;
  crashes : int;
  stalls : int;
  signals_dropped : int;
}

type ctx = {
  tid : tid;
  mutable clock : int;
  rng : Splitmix.t;
  stack_base : int;
  stack_words : int;
  mutable sp : int; (* absolute address of the first free slot *)
  reg_base : int;
  reg_words : int;
  mutable reg_cursor : int;
  manual_save_base : int;
  mutable sig_saves : int list; (* innermost first *)
  mutable save_pool : int list;
  mutable sig_depth : int;
  mutable handler : (unit -> unit) option;
  pending : int Atomic.t; (* undelivered signals *)
  kill : bool Atomic.t;
  finished : bool Atomic.t;
  (* chaos: stall requests latch here exactly like [kill]; the victim
     parks at its next safepoint.  0 = none, -1 = forever, n > 0 =
     bounded cycles.  [stalled_flag] is the SC publication point the
     proxy-scan ladder reads (see [park]); [stall_release] is a one-shot
     latch consumed by a parked victim (or, stale, by the next stall
     request site). *)
  stall_req : int Atomic.t;
  stalled_flag : bool Atomic.t;
  stall_release : bool Atomic.t;
  drop_sigs : int Atomic.t; (* next n incoming signals are lost *)
  sig_delay : int Atomic.t; (* cycles every incoming signal is delayed *)
  sig_arrival_ns : int Atomic.t; (* stamp of the latest delayed send *)
  mutable crashed : bool;
  mutable failure : exn option;
  mutable private_ranges : (int * int) list;
  mutable wait_note : string option;
  (* neutralization: armed by a signal handler (which runs inline on this
     very thread), consumed at the next abortable op.  Same-thread only,
     so a plain mutable field suffices. *)
  mutable abort_pending : exn option;
  (* op counters: thread-local, summed after the run *)
  mutable n_ops : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_cas : int;
  mutable n_faa : int;
  mutable n_fences : int;
  mutable n_mallocs : int;
  mutable n_frees : int;
  mutable n_yields : int;
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_spawns : int;
  mutable n_stalls : int; (* parks taken (victim-owned) *)
  mutable n_dropped : int; (* signals this thread sent into a drop window *)
}

type request = Run of (unit -> unit) | Stop

type dqueue = { dm : Mutex.t; dcv : Condition.t; dq : request Queue.t }

type t = {
  cfg : config;
  heap : Heap.t;
  words : int array; (* [Heap.words heap], for owner-private stores *)
  ctxs : ctx option array; (* tid-indexed; written under [reg_lock] *)
  next_tid : int Atomic.t;
  reg_lock : Mutex.t; (* guards thread table growth + ctxs writes *)
  crit : Mutex.t; (* backs Ts_rt.critical *)
  by_thread : ctx option array Atomic.t; (* Thread.id -> ctx *)
  queues : dqueue array;
}

(* ------------------------------------------------------------------ *)
(* Thread registry                                                    *)
(* ------------------------------------------------------------------ *)

(* Maps the host [Thread.id] to the logical ctx.  A thread only ever
   reads its own slot, which it wrote at registration, so the unlocked
   read is race-free; growth copies the array and swaps it in under
   [reg_lock], and a stale array read by the owner still contains the
   owner's slot. *)

let register t ctx =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock t.reg_lock;
  let arr = Atomic.get t.by_thread in
  let arr =
    if id < Array.length arr then arr
    else begin
      let bigger = Array.make (max (2 * Array.length arr) (id + 1)) None in
      Array.blit arr 0 bigger 0 (Array.length arr);
      Atomic.set t.by_thread bigger;
      bigger
    end
  in
  arr.(id) <- Some ctx;
  Mutex.unlock t.reg_lock

let deregister t =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock t.reg_lock;
  (Atomic.get t.by_thread).(id) <- None;
  Mutex.unlock t.reg_lock

let[@inline] cur t =
  let id = Thread.id (Thread.self ()) in
  let arr = Atomic.get t.by_thread in
  match if id < Array.length arr then arr.(id) else None with
  | Some c -> c
  | None -> raise (Par_error "operation outside a runtime thread")

let ctx_of t tid =
  if tid < 0 || tid >= t.cfg.max_threads then raise (Par_error "unknown thread id");
  match t.ctxs.(tid) with
  | Some c -> c
  | None -> raise (Par_error "unknown thread id")

(* ------------------------------------------------------------------ *)
(* Per-op bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] charge c n = c.clock <- c.clock + n

(* [n_ops] is the thread's step count; [op_steps_now] sums them, so no
   step touches a shared line.  Oversubscribed domains: make sure
   op-dense loops cannot hog a domain for a whole preemption tick.  Each
   forced yield is a master-lock handoff (microseconds); 4096 ops is
   still far below a tick. *)
let[@inline] step c =
  c.n_ops <- c.n_ops + 1;
  if c.n_ops land 4095 = 0 then Thread.yield ()

(* [n] calls of [step] at once: the forced yield sees the same
   boundaries a run of single steps would. *)
let step_n c n =
  let before = c.n_ops in
  let after = before + n in
  c.n_ops <- after;
  if after / 4096 <> before / 4096 then Thread.yield ()

let[@inline] is_private c addr =
  (addr >= c.stack_base && addr < c.stack_base + c.stack_words)
  || (addr >= c.reg_base && addr < c.reg_base + c.reg_words)

(* How many words of [base, base + len) fall inside [lo, lo + n). *)
let overlap base len lo n = max 0 (min (base + len) (lo + n) - max base lo)

(* A thread's own words (stack, register ring, save areas) are permanent
   regions written with plain, unchecked stores to [t.words] — see the
   header.  A non-strict out-of-memory hands back the null base; refuse
   it here, so every such store is in range by construction. *)
let private_region t n =
  let base = Heap.alloc_region t.heap n in
  if base = 0 then raise (Par_error "out of memory for a thread's private words");
  base

let[@inline] mirror t c v =
  (* branch wrap, not [mod]: this runs on every load and an integer
     division is the single most expensive instruction it would issue *)
  let cursor = c.reg_cursor + 1 in
  let cursor = if cursor >= c.reg_words then 0 else cursor in
  c.reg_cursor <- cursor;
  Array.unsafe_set t.words (c.reg_base + cursor) v

(* Both ranges are the caller's own words (ring or save areas). *)
let copy_regs t ~src ~dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set t.words (dst + i) (Array.unsafe_get t.words (src + i))
  done

(* ------------------------------------------------------------------ *)
(* Signals: pending counter polled at op boundaries                   *)
(* ------------------------------------------------------------------ *)

let acquire_save t c =
  match c.save_pool with
  | s :: rest ->
      c.save_pool <- rest;
      s
  | [] -> private_region t c.reg_words

let rec deliver t c =
  charge c t.cfg.cost.signal_dispatch;
  c.n_delivered <- c.n_delivered + 1;
  let save = acquire_save t c in
  copy_regs t ~src:c.reg_base ~dst:save c.reg_words;
  c.sig_saves <- save :: c.sig_saves;
  c.sig_depth <- c.sig_depth + 1;
  Fun.protect
    ~finally:(fun () ->
      (* sigreturn: restore the interrupted register context, undoing the
         handler's own register traffic. *)
      (match c.sig_saves with
      | save :: rest ->
          copy_regs t ~src:save ~dst:c.reg_base c.reg_words;
          c.sig_saves <- rest;
          c.save_pool <- save :: c.save_pool
      | [] -> ());
      c.sig_depth <- c.sig_depth - 1;
      charge c t.cfg.cost.signal_return)
    (fun () -> match c.handler with Some h -> h () | None -> ())

(* Cooperative stall: the victim parks here, at a safepoint, until the
   bounded deadline passes, a [stall_release] arrives, or it is killed.
   Soundness of the proxy-scan ladder rests on the flag protocol:

   - [stalled_flag := true] (SC) before the wait loop; while the flag
     reads [true] the victim performs no ops, so its stack/registers are
     frozen for a cross-thread scan.
   - on wake: bump the plain [clock] FIRST, then [stalled_flag := false]
     (SC, a release publishing the bump), then resume ops.  A reclaimer
     doing [clock_of u; scan; clock_of u] (each [clock_of] acquires via
     an SC load of the flag — see [op_clock_of]) therefore either sees
     the victim still parked, or sees a changed clock and discards the
     scan — exactly the sim's frozen-victim contract. *)
and park t c req =
  c.n_stalls <- c.n_stalls + 1;
  Atomic.set c.stalled_flag true;
  let deadline =
    if req < 0 then max_int
    else
      let now = now_ns () in
      let span = float_of_int req *. t.cfg.stall_ns_per_cycle in
      if span >= float_of_int (max_int - now) then max_int else now + int_of_float span
  in
  let rec wait () =
    if Atomic.get c.kill then begin
      Atomic.set c.stalled_flag false;
      c.crashed <- true;
      raise Killed
    end;
    if Atomic.compare_and_set c.stall_release true false then ()
    else if deadline < max_int && now_ns () >= deadline then ()
    else begin
      Thread.delay 0.0001;
      wait ()
    end
  in
  wait ();
  c.clock <- c.clock + max 1 req;
  Atomic.set c.stalled_flag false

and[@inline] delay_passed t c =
  let d = Atomic.get c.sig_delay in
  d = 0
  || now_ns ()
     >= Atomic.get c.sig_arrival_ns
        + int_of_float (float_of_int d *. t.cfg.stall_ns_per_cycle)

and poll_slow t c =
  if Atomic.get c.kill then begin
    c.crashed <- true;
    raise Killed
  end;
  (match Atomic.exchange c.stall_req 0 with 0 -> () | req -> park t c req);
  while Atomic.get c.pending > 0 && delay_passed t c do
    ignore (Atomic.fetch_and_add c.pending (-1));
    deliver t c
  done

(* The fast path is what every op inlines: three relaxed-in-practice
   loads of the thread's own (padded, rarely-written) flags, with the
   kill/stall/deliver machinery kept out of line so the common case
   stays branch-predictable. *)
let[@inline] poll t c =
  if Atomic.get c.kill || Atomic.get c.stall_req <> 0 || Atomic.get c.pending > 0 then
    poll_slow t c

(* A neutralization armed by a handler ([op_neutralize], which always
   runs inline on this very thread) fires here, before the op's access,
   once no handler frame is live.  Only the abortable ops consume it —
   read/write/cas/faa/fence/malloc/yield, the same set the simulator
   intercepts; frees and frame pops never abort, so cleanup paths
   (freeing a CAS-loser node, unwinding shadow frames) always run. *)
let[@inline] check_abort c =
  match c.abort_pending with
  | Some e when c.sig_depth = 0 ->
      c.abort_pending <- None;
      raise e
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Contexts                                                           *)
(* ------------------------------------------------------------------ *)

(* Contexts are the hottest per-thread records in the program: every op
   bumps [clock]/[n_ops] and polls [pending]/[kill].  Pad the record and
   its flag cells onto private cache lines — contexts for neighbouring
   threads are allocated back to back and would otherwise ping-pong a
   shared line on every single op. *)
let new_ctx t tid =
  let stack_base = private_region t t.cfg.stack_words in
  let reg_base = private_region t t.cfg.reg_words in
  let manual_save_base = private_region t t.cfg.reg_words in
  Ts_util.Padded.copy
  {
    tid;
    clock = 0;
    rng = Splitmix.create (t.cfg.seed lxor ((tid + 1) * 0x9E3779B9));
    stack_base;
    stack_words = t.cfg.stack_words;
    sp = stack_base;
    reg_base;
    reg_words = t.cfg.reg_words;
    reg_cursor = 0;
    manual_save_base;
    sig_saves = [];
    save_pool = [];
    sig_depth = 0;
    handler = None;
    pending = Ts_util.Padded.copy (Atomic.make 0);
    kill = Ts_util.Padded.copy (Atomic.make false);
    finished = Ts_util.Padded.copy (Atomic.make false);
    stall_req = Ts_util.Padded.copy (Atomic.make 0);
    stalled_flag = Ts_util.Padded.copy (Atomic.make false);
    stall_release = Ts_util.Padded.copy (Atomic.make false);
    drop_sigs = Atomic.make 0;
    sig_delay = Atomic.make 0;
    sig_arrival_ns = Atomic.make 0;
    crashed = false;
    failure = None;
    private_ranges = [];
    wait_note = None;
    abort_pending = None;
    n_ops = 0;
    n_reads = 0;
    n_writes = 0;
    n_cas = 0;
    n_faa = 0;
    n_fences = 0;
    n_mallocs = 0;
    n_frees = 0;
    n_yields = 0;
    n_sent = 0;
    n_delivered = 0;
    n_spawns = 0;
    n_stalls = 0;
    n_dropped = 0;
  }

let thread_body t ctx body () =
  register t ctx;
  (try body () with
  | Killed -> ctx.crashed <- true
  | e -> ctx.failure <- Some e);
  deregister t;
  Atomic.set ctx.finished true

(* ------------------------------------------------------------------ *)
(* Domain pool                                                        *)
(* ------------------------------------------------------------------ *)

let enqueue dq req =
  Mutex.lock dq.dm;
  Queue.push req dq.dq;
  Condition.signal dq.dcv;
  Mutex.unlock dq.dm

let domain_main dq () =
  let rec loop threads =
    Mutex.lock dq.dm;
    while Queue.is_empty dq.dq do
      Condition.wait dq.dcv dq.dm
    done;
    let req = Queue.pop dq.dq in
    Mutex.unlock dq.dm;
    match req with
    | Stop -> List.iter Thread.join threads
    | Run f -> loop (Thread.create f () :: threads)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Ops                                                                *)
(* ------------------------------------------------------------------ *)

let op_read t addr =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_reads <- c.n_reads + 1;
  charge c (if is_private c addr then t.cfg.cost.local_op else t.cfg.cost.shared_read);
  let v = Heap.read t.heap addr in
  mirror t c v;
  v

(* A conservative scan's loads: one poll, abort check and step batch
   for the whole range, then every word charged exactly as [op_read]
   charges it, and only the words in [lo, hi] handed to [f].  A range
   wholly inside the caller's own stack or register ring takes plain
   loads, as [op_write] stores there (see the header); any other range
   goes through the checked [Heap.read].  The words are not mirrored:
   the scanner compares each one and stores none, so none is a pointer
   in flight. *)
let op_scan_words t base len ~lo ~hi f =
  if len > 0 then begin
    let c = cur t in
    poll t c;
    check_abort c;
    step_n c len;
    c.n_reads <- c.n_reads + len;
    let priv =
      overlap base len c.stack_base c.stack_words + overlap base len c.reg_base c.reg_words
    in
    charge c ((priv * t.cfg.cost.local_op) + ((len - priv) * t.cfg.cost.shared_read));
    if priv = len then
      for a = base to base + len - 1 do
        let w = Array.unsafe_get t.words a in
        if w >= lo && w <= hi then f w
      done
    else
      for a = base to base + len - 1 do
        let w = Heap.read t.heap a in
        if w >= lo && w <= hi then f w
      done
  end

let op_write t addr v =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_writes <- c.n_writes + 1;
  if is_private c addr then begin
    (* a permanent region: its shadow is live for the whole run *)
    charge c t.cfg.cost.local_op;
    Array.unsafe_set t.words addr v
  end
  else begin
    charge c t.cfg.cost.shared_write;
    Heap.write t.heap addr v
  end

let op_cas t addr expected desired =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_cas <- c.n_cas + 1;
  charge c t.cfg.cost.cas;
  let ok = Heap.cas t.heap addr expected desired in
  if not ok then mirror t c (Heap.read t.heap addr);
  ok

let op_faa t addr delta =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_faa <- c.n_faa + 1;
  charge c t.cfg.cost.faa;
  let v = Heap.faa t.heap addr delta in
  mirror t c v;
  v

let op_fence t () =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_fences <- c.n_fences + 1;
  (* shared word accesses are already sequentially consistent, and
     owner-private words need no fence (see the header) *)
  charge c t.cfg.cost.fence

let op_malloc t n =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_mallocs <- c.n_mallocs + 1;
  charge c t.cfg.cost.malloc;
  let addr = Heap.malloc t.heap ~tid:c.tid n in
  mirror t c addr;
  addr

let op_free t addr =
  let c = cur t in
  poll t c;
  step c;
  c.n_frees <- c.n_frees + 1;
  charge c t.cfg.cost.free;
  Heap.free t.heap ~tid:c.tid addr

let op_alloc_region t n =
  let c = cur t in
  poll t c;
  step c;
  charge c t.cfg.cost.malloc;
  Heap.alloc_region t.heap n

let op_yield t () =
  let c = cur t in
  poll t c;
  check_abort c;
  step c;
  c.n_yields <- c.n_yields + 1;
  charge c t.cfg.cost.yield;
  Thread.yield ()

let op_advance t n =
  let c = cur t in
  poll t c;
  charge c (max 0 n)

let op_now t () = (cur t).clock
let op_self t () = (cur t).tid

let op_rand t n =
  let c = cur t in
  charge c t.cfg.cost.local_op;
  Splitmix.below c.rng n

(* The sum of every thread's [n_ops]: each is written only by its owner
   and only grows, so the sum never decreases across calls. *)
let op_steps_now t () =
  let sum = ref 0 in
  for tid = 0 to min (Atomic.get t.next_tid) t.cfg.max_threads - 1 do
    match t.ctxs.(tid) with Some c -> sum := !sum + c.n_ops | None -> ()
  done;
  !sum

let op_spawn t f =
  let c = cur t in
  poll t c;
  step c;
  c.n_spawns <- c.n_spawns + 1;
  charge c t.cfg.cost.spawn;
  let tid = Atomic.fetch_and_add t.next_tid 1 in
  if tid >= t.cfg.max_threads then raise (Par_error "spawn: max_threads exceeded");
  let ctx = new_ctx t tid in
  Mutex.lock t.reg_lock;
  t.ctxs.(tid) <- Some ctx;
  Mutex.unlock t.reg_lock;
  enqueue t.queues.((tid - 1) mod Array.length t.queues) (Run (thread_body t ctx f));
  tid

let op_join t target =
  let c = cur t in
  let tc = ctx_of t target in
  while not (Atomic.get tc.finished) do
    poll t c;
    charge c t.cfg.cost.yield;
    (* Sleep, don't spin: the joiner usually lives on a different domain
       than its target, and a [Thread.yield] spin there competes with the
       target's domain for CPU — on an oversubscribed machine it can eat
       half the run.  [Thread.delay] parks at the OS level. *)
    Thread.delay 0.0002
  done

let op_is_done t target = Atomic.get (ctx_of t target).finished

let op_poll t () =
  let c = cur t in
  poll t c

(* Drop accounting happens on the sender side (each sender owns its
   [n_dropped] counter), but the drop *budget* lives on the target and
   is consumed with a CAS so concurrent senders never double-spend. *)
let rec consume_drop tc =
  let d = Atomic.get tc.drop_sigs in
  d > 0 && (Atomic.compare_and_set tc.drop_sigs d (d - 1) || consume_drop tc)

let op_signal t target =
  let c = cur t in
  poll t c;
  step c;
  c.n_sent <- c.n_sent + 1;
  charge c t.cfg.cost.signal_send;
  let tc = ctx_of t target in
  if not (Atomic.get tc.finished) then begin
    if consume_drop tc then c.n_dropped <- c.n_dropped + 1
    else begin
      if Atomic.get tc.sig_delay > 0 then Atomic.set tc.sig_arrival_ns (now_ns ());
      Atomic.incr tc.pending
    end
  end

let op_set_handler t h =
  let c = cur t in
  charge c t.cfg.cost.local_op;
  c.handler <- Some h

let op_sig_depth t () = (cur t).sig_depth

let op_neutralize t e =
  let c = cur t in
  charge c t.cfg.cost.local_op;
  c.abort_pending <- Some e

let op_cancel_neutralize t () =
  let c = cur t in
  charge c t.cfg.cost.local_op;
  c.abort_pending <- None

let op_push_frame t n =
  let c = cur t in
  poll t c;
  if n < 0 then raise (Par_error "push_frame: negative size");
  if c.sp + n > c.stack_base + c.stack_words then raise (Par_error "shadow stack overflow");
  charge c t.cfg.cost.local_op;
  let base = c.sp in
  c.sp <- c.sp + n;
  for i = base to c.sp - 1 do
    Array.unsafe_set t.words i 0
  done;
  base

let op_pop_frame t base =
  let c = cur t in
  if base < c.stack_base || base > c.sp then raise (Par_error "pop_frame: bad frame base");
  charge c t.cfg.cost.local_op;
  c.sp <- base

let op_stack_range t () =
  let c = cur t in
  (c.stack_base, c.sp)

let op_reg_range t () =
  let c = cur t in
  (c.reg_base, c.reg_words)

let op_save_regs t () =
  let c = cur t in
  charge c (c.reg_words * t.cfg.cost.local_op);
  copy_regs t ~src:c.reg_base ~dst:c.manual_save_base c.reg_words

let op_saved_reg_range t () =
  let c = cur t in
  let base = match c.sig_saves with save :: _ -> save | [] -> c.manual_save_base in
  (base, c.reg_words)

let op_clear_regs t () =
  let c = cur t in
  charge c (c.reg_words * t.cfg.cost.local_op);
  for i = 0 to c.reg_words - 1 do
    Array.unsafe_set t.words (c.reg_base + i) 0
  done

let op_add_range t base len =
  let c = cur t in
  c.private_ranges <- (base, len) :: c.private_ranges

let op_remove_range t base len =
  let c = cur t in
  let rec drop = function
    | [] -> []
    | (b, l) :: rest when b = base && l = len -> rest
    | r :: rest -> r :: drop rest
  in
  c.private_ranges <- drop c.private_ranges

let op_private_ranges t () = (cur t).private_ranges

(* Cross-thread range read: sound for crashed threads (their fields are
   frozen) and for cooperating threads at op boundaries — the proxy-scan
   uses it only on subjects it has evidence are not running. *)
let op_scan_ranges t target =
  let c = ctx_of t target in
  (c.stack_base, c.sp - c.stack_base)
  :: (c.reg_base, c.reg_words)
  :: (c.manual_save_base, c.reg_words)
  :: (List.map (fun s -> (s, c.reg_words)) c.sig_saves @ c.private_ranges)
  |> List.filter (fun (_, len) -> len > 0)

let op_crash t target =
  let c = cur t in
  if target = c.tid then begin
    c.crashed <- true;
    raise Killed
  end
  else begin
    let tc = ctx_of t target in
    if not (Atomic.get tc.finished) then Atomic.set tc.kill true
  end

let op_stall t cycles target =
  let c = cur t in
  poll t c;
  let req = match cycles with None -> -1 | Some n -> max 0 n in
  if req <> 0 then
    if target = c.tid then begin
      (* a release latched before this stall began is stale: consume it
         so the park honours its own deadline/release *)
      ignore (Atomic.compare_and_set c.stall_release true false);
      park t c req
    end
    else begin
      let tc = ctx_of t target in
      if not (Atomic.get tc.finished) then begin
        ignore (Atomic.compare_and_set tc.stall_release true false);
        Atomic.set tc.stall_req req
      end
    end

let op_unstall t target =
  let c = cur t in
  poll t c;
  charge c t.cfg.cost.local_op;
  let tc = ctx_of t target in
  (* wake a parked victim, and cancel a stall request it has not yet
     reached a safepoint to take — either way the latch is consumed by
     exactly one park (or the next stall request site) *)
  Atomic.set tc.stall_release true;
  Atomic.set tc.stall_req 0

let op_drop_signals t target n =
  let c = cur t in
  poll t c;
  charge c t.cfg.cost.local_op;
  Atomic.set (ctx_of t target).drop_sigs (max 0 n)

let op_delay_signals t target cycles =
  let c = cur t in
  poll t c;
  charge c t.cfg.cost.local_op;
  Atomic.set (ctx_of t target).sig_delay (max 0 cycles)

let op_sleep t n =
  let c = cur t in
  poll t c;
  let n = max 0 n in
  charge c n;
  if n > 0 then Thread.delay (float_of_int n *. t.cfg.stall_ns_per_cycle /. 1e9)

let op_is_crashed t target = (ctx_of t target).crashed

let op_is_stalled t target = Atomic.get (ctx_of t target).stalled_flag

let op_clock_of t target =
  let c = ctx_of t target in
  (* The SC flag load is the acquire edge pairing with [park]'s wake-time
     release store: a reader that observes [stalled_flag = false] is
     guaranteed to see the wake-time clock bump, which is what makes the
     ladder's clock-check proxy-scan sound on real domains. *)
  ignore (Atomic.get c.stalled_flag : bool);
  c.clock

let op_set_wait_note t n =
  let c = cur t in
  c.wait_note <- n

let op_note _t _s = ()

let op_critical t f =
  Mutex.lock t.crit;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.crit) f

let make_ops t : Ts_rt.ops =
  {
    Ts_rt.read = op_read t;
    scan_words = op_scan_words t;
    write = op_write t;
    cas = op_cas t;
    faa = op_faa t;
    fence = op_fence t;
    malloc = op_malloc t;
    free = op_free t;
    alloc_region = op_alloc_region t;
    yield = op_yield t;
    advance = op_advance t;
    now = op_now t;
    self = op_self t;
    rand_below = op_rand t;
    steps_now = op_steps_now t;
    spawn = op_spawn t;
    join = op_join t;
    is_done = op_is_done t;
    poll = op_poll t;
    signal = op_signal t;
    set_signal_handler = op_set_handler t;
    signal_depth = op_sig_depth t;
    neutralize = op_neutralize t;
    cancel_neutralize = op_cancel_neutralize t;
    push_frame = op_push_frame t;
    pop_frame = op_pop_frame t;
    stack_range = op_stack_range t;
    reg_range = op_reg_range t;
    save_regs = op_save_regs t;
    saved_reg_range = op_saved_reg_range t;
    clear_regs = op_clear_regs t;
    add_private_range = op_add_range t;
    remove_private_range = op_remove_range t;
    private_ranges = op_private_ranges t;
    scan_ranges_of = op_scan_ranges t;
    crash = op_crash t;
    stall = op_stall t;
    unstall = op_unstall t;
    drop_signals = op_drop_signals t;
    delay_signals = op_delay_signals t;
    sleep = op_sleep t;
    is_crashed = op_is_crashed t;
    is_stalled = op_is_stalled t;
    clock_of = op_clock_of t;
    set_wait_note = op_set_wait_note t;
    note = op_note t;
    critical = (fun f -> op_critical t f);
  }

(* ------------------------------------------------------------------ *)
(* Running                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  elapsed : int;  (** max per-thread virtual clock, cost-model cycles *)
  wall_ns : int;  (** real elapsed time *)
  run_stats : stats;
  failures : (tid * exn) list;
  crashed : tid list;
  thread_count : int;
  heap : Heap.t;  (** for post-run fault/leak assertions *)
  wedged : bool;  (** the watchdog had to kill the run *)
  post_mortem : string option;  (** thread states at watchdog fire time *)
}

let pool_size cfg =
  let d = if cfg.pool > 0 then cfg.pool else Domain.recommended_domain_count () in
  max 1 (min d 64)

let create (cfg : config) =
  (* [mirror] stores into the ring unchecked, so it must have a word *)
  if cfg.reg_words < 1 then invalid_arg "Ts_par.Runtime: reg_words must be positive";
  let heap =
    Heap.create ~strict:cfg.strict_mem ~capacity:cfg.mem_capacity ~max_threads:cfg.max_threads ()
  in
  {
    cfg;
    heap;
    words = Heap.words heap;
    ctxs = Array.make cfg.max_threads None;
    (* bumped on every registration, read on every tid lookup — keep it
       off the line shared with the ctxs array header *)
    next_tid = Ts_util.Padded.copy (Atomic.make 1);
    reg_lock = Mutex.create ();
    crit = Mutex.create ();
    by_thread = Ts_util.Padded.copy (Atomic.make (Array.make 256 None));
    queues =
      Array.init (pool_size cfg) (fun _ ->
          { dm = Mutex.create (); dcv = Condition.create (); dq = Queue.create () });
  }

let collect_stats t =
  let z =
    {
      reads = 0;
      writes = 0;
      cas_ops = 0;
      faas = 0;
      fences = 0;
      mallocs = 0;
      frees = 0;
      yields = 0;
      signals_sent = 0;
      signals_delivered = 0;
      spawns = 0;
      crashes = 0;
      stalls = 0;
      signals_dropped = 0;
    }
  in
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some c ->
          {
            reads = acc.reads + c.n_reads;
            writes = acc.writes + c.n_writes;
            cas_ops = acc.cas_ops + c.n_cas;
            faas = acc.faas + c.n_faa;
            fences = acc.fences + c.n_fences;
            mallocs = acc.mallocs + c.n_mallocs;
            frees = acc.frees + c.n_frees;
            yields = acc.yields + c.n_yields;
            signals_sent = acc.signals_sent + c.n_sent;
            signals_delivered = acc.signals_delivered + c.n_delivered;
            spawns = acc.spawns + c.n_spawns;
            crashes = (acc.crashes + if c.crashed then 1 else 0);
            stalls = acc.stalls + c.n_stalls;
            signals_dropped = acc.signals_dropped + c.n_dropped;
          })
    z t.ctxs

(* ---- liveness watchdog ----

   A host thread (never a logical thread: it must stay responsive while
   every logical thread is wedged) with an absolute wall deadline.  On
   fire it snapshots every thread's state into a post-mortem, then kills
   all unfinished threads — parked victims check [kill] in their wait
   loop, joiners poll, so the run drains and returns with [wedged]
   instead of hanging CI. *)

let describe_ctx c =
  let state =
    if Atomic.get c.finished then if c.crashed then "crashed" else "done"
    else if Atomic.get c.stalled_flag then "stalled"
    else "running"
  in
  let note = match c.wait_note with None -> "" | Some n -> Printf.sprintf " (%s)" n in
  let pend = Atomic.get c.pending in
  let sigs = if pend = 0 then "" else Printf.sprintf " [%d pending]" pend in
  Printf.sprintf "t%d %s%s%s clock=%d ops=%d" c.tid state note sigs c.clock c.n_ops

let post_mortem_of t =
  let parts = ref [] in
  for tid = Atomic.get t.next_tid - 1 downto 0 do
    match t.ctxs.(tid) with Some c -> parts := describe_ctx c :: !parts | None -> ()
  done;
  Printf.sprintf "watchdog fired after %.0fms: %s"
    (float_of_int t.cfg.watchdog_ns /. 1e6)
    (String.concat "; " !parts)

let watchdog_body t deadline stop fired pm () =
  let rec loop () =
    if Atomic.get stop then ()
    else if now_ns () >= deadline then begin
      pm := Some (post_mortem_of t);
      Atomic.set fired true;
      for tid = 0 to Atomic.get t.next_tid - 1 do
        match t.ctxs.(tid) with
        | Some c when not (Atomic.get c.finished) -> Atomic.set c.kill true
        | _ -> ()
      done
    end
    else begin
      Thread.delay 0.002;
      loop ()
    end
  in
  loop ()

let run ?(config = default_config) main =
  let t = create config in
  (* Save/restore the previous BASE record (not the decorated dispatch
     record): re-installing a decorated record would stack a second copy
     of any attached analyzer on top of it. *)
  let previous = Ts_rt.base_ops () in
  Ts_rt.install (make_ops t);
  Ts_rt.enter_run ();
  let finally () =
    Ts_rt.exit_run ();
    match previous with Some ops -> Ts_rt.install ops | None -> ()
  in
  Fun.protect ~finally (fun () ->
      let domains = Array.map (fun dq -> Domain.spawn (domain_main dq)) t.queues in
      let main_ctx = new_ctx t 0 in
      Mutex.lock t.reg_lock;
      t.ctxs.(0) <- Some main_ctx;
      Mutex.unlock t.reg_lock;
      let t0 = now_ns () in
      let wd_stop = Atomic.make false in
      let wd_fired = Atomic.make false in
      let wd_pm = ref None in
      let wd =
        if config.watchdog_ns <= 0 then None
        else
          let deadline = t0 + config.watchdog_ns in
          Some (Thread.create (watchdog_body t deadline wd_stop wd_fired wd_pm) ())
      in
      thread_body t main_ctx main ();
      (* The main body normally joins its workers; pick up any it left
         running (or spawned on the way out) before stopping the pool. *)
      let rec drain () =
        let pending = ref false in
        for tid = 0 to Atomic.get t.next_tid - 1 do
          match t.ctxs.(tid) with
          | Some c when not (Atomic.get c.finished) -> pending := true
          | _ -> ()
        done;
        if !pending then begin
          Thread.delay 0.0002;
          drain ()
        end
      in
      drain ();
      Array.iter (fun dq -> enqueue dq Stop) t.queues;
      Array.iter Domain.join domains;
      (match wd with
      | None -> ()
      | Some th ->
          Atomic.set wd_stop true;
          Thread.join th);
      let wall_ns = now_ns () - t0 in
      let elapsed =
        Array.fold_left
          (fun acc -> function Some c -> max acc c.clock | None -> acc)
          0 t.ctxs
      in
      let failures =
        Array.fold_left
          (fun acc -> function
            | Some c -> ( match c.failure with Some e -> (c.tid, e) :: acc | None -> acc)
            | None -> acc)
          [] t.ctxs
        |> List.rev
      in
      let crashed =
        Array.fold_left
          (fun acc -> function Some (c : ctx) when c.crashed -> c.tid :: acc | _ -> acc)
          [] t.ctxs
        |> List.rev
      in
      (match (config.propagate_failures, failures) with
      | true, (tid, e) :: _ -> raise (Thread_failure (tid, e))
      | _ -> ());
      {
        elapsed;
        wall_ns;
        run_stats = collect_stats t;
        failures;
        crashed;
        thread_count = Atomic.get t.next_tid;
        heap = t.heap;
        wedged = Atomic.get wd_fired;
        post_mortem = !wd_pm;
      })
