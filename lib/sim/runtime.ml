module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Ptr = Ts_umem.Ptr
module Splitmix = Ts_util.Splitmix

type tid = int

exception Deadlock of string
exception Step_limit_exceeded
exception Thread_failure of tid * exn
exception Sim_error of string

type sched =
  | Timed
  | Uniform
  | Pct of { change_points : int; expected_steps : int }

type config = {
  cost : Ts_rt.Cost_model.t;
  cores : int;
  quantum : int;
  seed : int;
  stack_words : int;
  reg_words : int;
  mem_capacity : int;
  strict_mem : bool;
  sanitize : bool;
  max_steps : int;
  propagate_failures : bool;
  trace : (Trace.entry -> unit) option;
  sched : sched;
}

let default_config =
  {
    cost = Ts_rt.Cost_model.default;
    cores = 0;
    quantum = 50_000;
    seed = 0x5EED;
    stack_words = 256;
    reg_words = 32;
    mem_capacity = 1 lsl 26;
    strict_mem = true;
    sanitize = false;
    max_steps = 1 lsl 32;
    propagate_failures = true;
    trace = None;
    sched = Timed;
  }

type stats = {
  mutable steps : int;
  mutable reads : int;
  mutable writes : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable fences : int;
  mutable mallocs : int;
  mutable frees : int;
  mutable yields : int;
  mutable signals_sent : int;
  mutable signals_delivered : int;
  mutable ctx_switches : int;
  mutable spawns : int;
  mutable crashes : int;
  mutable stalls : int;
  mutable signals_dropped : int;
}

let make_stats () =
  {
    steps = 0;
    reads = 0;
    writes = 0;
    cas_ops = 0;
    cas_failures = 0;
    fences = 0;
    mallocs = 0;
    frees = 0;
    yields = 0;
    signals_sent = 0;
    signals_delivered = 0;
    ctx_switches = 0;
    spawns = 0;
    crashes = 0;
    stalls = 0;
    signals_dropped = 0;
  }

type result = {
  elapsed : int;
  run_stats : stats;
  failures : (tid * exn) list;
  abandoned : tid list;
}

type status = Ready | Done

(* What a thread runs when it is next stepped, in one block per
   suspension: the step that consumes it allocates no closure. *)
type resume =
  | Idle (* finished, or being stepped right now *)
  | Fiber of (unit -> unit) (* a thread body or signal handler, not yet started *)
  | Cont : ('a, unit) Effect.Deep.continuation * 'a -> resume
  | Abort : ('a, unit) Effect.Deep.continuation * exn -> resume
  | Join of (unit, unit) Effect.Deep.continuation * tid * (unit -> string) option
      (* blocked in [join target]; the wait note is formatted once *)

type thread = {
  tid : int;
  mutable clock : int;
  mutable status : status;
  mutable resume : resume;
  mutable saved : resume list; (* fibers interrupted by signal handlers *)
  mutable on_core : bool;
  mutable core_since : int;
  mutable ever_scheduled : bool;
  mutable boosted : bool;
  mutable wants_yield : bool;
  stack_base : int;
  stack_words : int;
  mutable sp : int; (* next free stack slot (absolute address) *)
  reg_base : int;
  reg_words : int;
  manual_save_base : int; (* explicit save_regs snapshot *)
  mutable sig_saves : int list; (* per-nesting-level saved contexts, top first *)
  mutable save_pool : int list; (* recycled save regions *)
  mutable reg_cursor : int;
  mutable handler : (unit -> unit) option;
  pending : int Queue.t;
  mutable sig_depth : int;
  mutable failure : exn option;
  rng : Splitmix.t;
  mutable private_ranges : (int * int) list;
  mutable prio : int; (* PCT priority; higher steps first *)
  mutable stalled_until : int; (* -1 not stalled; max_int forever *)
  mutable crashed : bool;
  mutable drop_sigs : int; (* fault injection: drop the next n signals *)
  mutable sig_delay : int; (* fault injection: delay delivery by n cycles *)
  mutable wait_note : (unit -> string) option; (* what the thread is blocked on *)
  mutable abort_pending : exn option; (* neutralization armed by a handler *)
}

type t = {
  cfg : config;
  mem : Mem.t;
  alloc : Alloc.t;
  mutable threads : thread array; (* index = tid; dummy slots beyond nthreads *)
  mutable nthreads : int;
  mutable ready_front : thread list;
  mutable ready_back : thread list;
  (* Active threads as a binary min-heap on (clock, tid): the scheduler
     steps the minimum on every iteration, so this is the hot structure.
     It holds tids and their clock keys in two int arrays (no write
     barrier on a swap); a key equals its thread's clock except for the
     thread being stepped, whose key [sync_current_key] refreshes. *)
  mutable heap_tid : int array;
  mutable heap_key : int array;
  mutable heap_pos : int array; (* index = tid: its heap index, -1 when off-core *)
  mutable nactive : int;
  mutable live : int;
  mutable now : int;
  mutable want_preempt : bool;
  mutable started : bool;
  sim_stats : stats;
  rng : Splitmix.t;
  mutable pct_points : int list; (* remaining change points, ascending *)
  mutable floor_prio : int; (* every demotion goes strictly below this *)
  mutable sched_steps : int; (* steps counted for PCT change points *)
  mutable current : int; (* tid being stepped, -1 outside [step] *)
  mutable stalled : thread list; (* descheduled by fault injection *)
  mutable op_result : int; (* the handled effect's result, see [make_handler] *)
}

(* ------------------------------------------------------------------ *)
(* Effects                                                            *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | E_read : int -> int Effect.t
  | E_write : (int * int) -> unit Effect.t
  | E_cas : (int * int * int) -> bool Effect.t
  | E_faa : (int * int) -> int Effect.t
  | E_fence : unit Effect.t
  | E_malloc : int -> int Effect.t
  | E_free : int -> unit Effect.t
  | E_region : int -> int Effect.t
  | E_yield : unit Effect.t
  | E_advance : int -> unit Effect.t
  | E_now : int Effect.t
  | E_self : int Effect.t
  | E_rand : int -> int Effect.t
  | E_spawn : (unit -> unit) -> int Effect.t
  | E_join : int -> unit Effect.t
  | E_is_done : int -> bool Effect.t
  | E_signal : int -> unit Effect.t
  | E_set_handler : (unit -> unit) -> unit Effect.t
  | E_sig_depth : int Effect.t
  | E_neutralize : exn -> unit Effect.t
  | E_cancel_neutralize : unit Effect.t
  | E_push_frame : int -> int Effect.t
  | E_pop_frame : int -> unit Effect.t
  | E_stack_range : (int * int) Effect.t
  | E_reg_range : (int * int) Effect.t
  | E_save_regs : unit Effect.t
  | E_saved_reg_range : (int * int) Effect.t
  | E_clear_regs : unit Effect.t
  | E_add_range : (int * int) -> unit Effect.t
  | E_remove_range : (int * int) -> unit Effect.t
  | E_ranges : (int * int) list Effect.t
  | E_ranges_of : int -> (int * int) list Effect.t
  | E_steps : int Effect.t
  | E_crash : int -> unit Effect.t
  | E_stall : (int * int option) -> unit Effect.t
  | E_unstall : int -> unit Effect.t
  | E_drop_signals : (int * int) -> unit Effect.t
  | E_delay_signals : (int * int) -> unit Effect.t
  | E_wait_note : (unit -> string) option -> unit Effect.t
  | E_note : string -> unit Effect.t
  | E_is_crashed : int -> bool Effect.t
  | E_is_stalled : int -> bool Effect.t
  | E_clock_of : int -> int Effect.t

(* ------------------------------------------------------------------ *)
(* Ready queue (FIFO with push-front for boosted threads)             *)
(* ------------------------------------------------------------------ *)

let ready_push rt th = rt.ready_back <- th :: rt.ready_back

let ready_push_front rt th = rt.ready_front <- th :: rt.ready_front

let rec ready_pop rt =
  match rt.ready_front with
  | th :: tl ->
      rt.ready_front <- tl;
      Some th
  | [] -> (
      match rt.ready_back with
      | [] -> None
      | l ->
          rt.ready_front <- List.rev l;
          rt.ready_back <- [];
          ready_pop rt)

(* a pattern, not [<> []]: a polymorphic compare is a C call, and this
   runs several times per step *)
let[@inline] ready_nonempty rt = match (rt.ready_front, rt.ready_back) with [], [] -> false | _ -> true

let ready_remove rt th =
  let not_th x = x != th in
  rt.ready_front <- List.filter not_th rt.ready_front;
  rt.ready_back <- List.filter not_th rt.ready_back

(* ------------------------------------------------------------------ *)
(* Thread bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] charge th c = th.clock <- th.clock + c

let emit rt th event =
  match rt.cfg.trace with
  | None -> ()
  | Some f -> f { Trace.time = th.clock; event }

let[@inline] unlimited rt = rt.cfg.cores <= 0

(* ---- active-set heap (min on (clock, tid)) ---- *)

let[@inline] heap_less rt i j =
  let ki = rt.heap_key.(i) and kj = rt.heap_key.(j) in
  ki < kj || (ki = kj && rt.heap_tid.(i) < rt.heap_tid.(j))

let[@inline] heap_set rt i tid key =
  rt.heap_tid.(i) <- tid;
  rt.heap_key.(i) <- key;
  rt.heap_pos.(tid) <- i

let[@inline] heap_swap rt i j =
  let ti = rt.heap_tid.(i) and ki = rt.heap_key.(i) in
  heap_set rt i rt.heap_tid.(j) rt.heap_key.(j);
  heap_set rt j ti ki

let rec sift_up rt i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less rt i p then begin
      heap_swap rt i p;
      sift_up rt p
    end
  end

let rec sift_down rt i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < rt.nactive && heap_less rt l i then l else i in
  let m = if r < rt.nactive && heap_less rt r m then r else m in
  if m <> i then begin
    heap_swap rt i m;
    sift_down rt m
  end

(* The stepped thread's clock runs ahead of its key during its step.  A
   sift that may compare against it (another thread crashing or stalling
   mid-step removes that thread from the heap) must first see its clock. *)
let[@inline] sync_current_key rt =
  if rt.current >= 0 then begin
    let p = rt.heap_pos.(rt.current) in
    if p >= 0 then rt.heap_key.(p) <- rt.threads.(rt.current).clock
  end

let heap_push rt th =
  sync_current_key rt;
  if rt.nactive = Array.length rt.heap_tid then begin
    let grow a =
      let bigger = Array.make (max 8 (2 * Array.length a)) 0 in
      Array.blit a 0 bigger 0 rt.nactive;
      bigger
    in
    rt.heap_tid <- grow rt.heap_tid;
    rt.heap_key <- grow rt.heap_key
  end;
  heap_set rt rt.nactive th.tid th.clock;
  rt.nactive <- rt.nactive + 1;
  sift_up rt (rt.nactive - 1)

let heap_remove rt th =
  sync_current_key rt;
  let i = rt.heap_pos.(th.tid) in
  rt.nactive <- rt.nactive - 1;
  if i < rt.nactive then begin
    heap_set rt i rt.heap_tid.(rt.nactive) rt.heap_key.(rt.nactive);
    sift_down rt i;
    sift_up rt i
  end;
  rt.heap_pos.(th.tid) <- -1

let remove_active rt th =
  if th.on_core then begin
    th.on_core <- false;
    heap_remove rt th
  end

let thread_finished rt th =
  th.status <- Done;
  th.saved <- [];
  th.resume <- Idle;
  rt.live <- rt.live - 1;
  remove_active rt th;
  emit rt th (Trace.Thread_finished { tid = th.tid })

let thread_fail rt th e =
  th.failure <- Some e;
  thread_finished rt th

let copy_regs rt ~src ~dst n =
  for i = 0 to n - 1 do
    Mem.raw_write rt.mem (dst + i) (Mem.raw_read rt.mem (src + i))
  done

(* Called when the currently-running fiber of [th] returns normally. *)
let fiber_done rt th =
  match th.saved with
  | [] -> thread_finished rt th
  | f :: tl ->
      th.saved <- tl;
      th.sig_depth <- th.sig_depth - 1;
      charge th rt.cfg.cost.signal_return;
      (* sigreturn: restore the interrupted register context, undoing the
         handler's own register traffic. *)
      (match th.sig_saves with
      | save :: rest ->
          copy_regs rt ~src:save ~dst:th.reg_base th.reg_words;
          th.sig_saves <- rest;
          th.save_pool <- save :: th.save_pool
      | [] -> ());
      emit rt th (Trace.Signal_returned { tid = th.tid });
      th.resume <- f

(* ------------------------------------------------------------------ *)
(* Memory operations (executed at effect-perform time)                *)
(* ------------------------------------------------------------------ *)

let[@inline] is_private th addr =
  (addr >= th.stack_base && addr < th.stack_base + th.stack_words)
  || (addr >= th.reg_base && addr < th.reg_base + th.reg_words)

let[@inline] mirror_into_regs rt th v =
  (* the ring index without a division on every load *)
  let c = th.reg_cursor + 1 in
  th.reg_cursor <- (if c < th.reg_words then c else c mod th.reg_words);
  Mem.raw_write rt.mem (th.reg_base + th.reg_cursor) v

let[@inline] do_read rt th addr =
  rt.sim_stats.reads <- rt.sim_stats.reads + 1;
  charge th (if is_private th addr then rt.cfg.cost.local_op else rt.cfg.cost.shared_read);
  let v = Mem.read rt.mem addr in
  mirror_into_regs rt th v;
  v

let[@inline] do_write rt th addr v =
  rt.sim_stats.writes <- rt.sim_stats.writes + 1;
  charge th (if is_private th addr then rt.cfg.cost.local_op else rt.cfg.cost.shared_write);
  Mem.write rt.mem addr v

let[@inline] do_cas rt th addr expected desired =
  rt.sim_stats.cas_ops <- rt.sim_stats.cas_ops + 1;
  charge th rt.cfg.cost.cas;
  let v = Mem.read rt.mem addr in
  if v = expected then begin
    Mem.write rt.mem addr desired;
    true
  end
  else begin
    rt.sim_stats.cas_failures <- rt.sim_stats.cas_failures + 1;
    mirror_into_regs rt th v;
    false
  end

let[@inline] do_faa rt th addr delta =
  charge th rt.cfg.cost.faa;
  let v = Mem.read rt.mem addr in
  Mem.write rt.mem addr (v + delta);
  mirror_into_regs rt th v;
  v

(* ------------------------------------------------------------------ *)
(* Fibers                                                             *)
(* ------------------------------------------------------------------ *)

let ranges_of_thread th =
  (* stack, live registers, the manual snapshot, every signal-time saved
     context, and registered private ranges: everything a value the thread
     held at its last instant could live in.  Conservative supersets are
     safe; a proxy scan of a stalled/crashed thread must not miss a pointer
     parked in a saved context. *)
  (th.stack_base, th.sp - th.stack_base)
  :: (th.reg_base, th.reg_words)
  :: (th.manual_save_base, th.reg_words)
  :: (List.map (fun s -> (s, th.reg_words)) th.sig_saves @ th.private_ranges)
  |> List.filter (fun (_, len) -> len > 0)

let get_thread rt tid =
  if tid < 0 || tid >= rt.nthreads then raise (Sim_error "unknown thread id");
  rt.threads.(tid)

let thread_done rt tid = (get_thread rt tid).status = Done

let is_stalled th = th.stalled_until >= 0

let do_signal rt sender target_tid =
  let target = get_thread rt target_tid in
  rt.sim_stats.signals_sent <- rt.sim_stats.signals_sent + 1;
  charge sender rt.cfg.cost.signal_send;
  emit rt sender (Trace.Signal_sent { sender = sender.tid; target = target_tid });
  if target.status <> Done then begin
    if target.drop_sigs > 0 then begin
      target.drop_sigs <- target.drop_sigs - 1;
      rt.sim_stats.signals_dropped <- rt.sim_stats.signals_dropped + 1;
      emit rt sender (Trace.Signal_dropped { sender = sender.tid; target = target_tid })
    end
    else begin
      (* queue entries hold the earliest virtual time delivery may happen;
         0 = immediately (the normal, undelayed case) *)
      let deliver_at =
        if target.sig_delay > 0 then max sender.clock target.clock + target.sig_delay else 0
      in
      Queue.push deliver_at target.pending;
      if (not target.on_core) && (not target.boosted) && not (is_stalled target) then begin
        (* The kernel makes a freshly-signaled thread runnable promptly:
           move it to the head of the ready queue and request a preemption.
           A stalled thread stays descheduled; the signal pends until it
           wakes. *)
        target.boosted <- true;
        ready_remove rt target;
        ready_push_front rt target;
        rt.want_preempt <- true
      end
    end
  end

(* ---- non-preemptible critical sections ----

   [Ts_rt.critical] must make its body scheduling-atomic: a decorator
   (the happens-before analyzer) delegates a memory effect and then
   updates its own bookkeeping inside one [critical] body, and no other
   fiber may observe the memory mutation before the bookkeeping lands.
   Mutual exclusion alone is free here (one fiber runs at a time), but
   every effect is a scheduling point, so [critical] additionally pins
   its owner: while a section is open the scheduler keeps resuming the
   owning fiber.

   The refs are module-level because the [Ts_rt.ops] record is static;
   exactly one simulator instance runs at a time (enforced by
   [Ts_rt.install]), and [create] and [start] reset them.  When no
   critical body performs an effect — true of every in-tree caller except
   the analyzer — the scheduler never observes a nonzero depth and
   schedules are bit-for-bit what they were. *)

let crit_depth = ref 0
let crit_tid = ref (-1) (* owner while depth > 0 *)
let cur_tid = ref (-1) (* tid of the fiber inside [step] *)

(* ---- fault injection ---- *)

let do_crash rt reporter target_tid =
  let target = get_thread rt target_tid in
  if target.status <> Done then begin
    rt.sim_stats.crashes <- rt.sim_stats.crashes + 1;
    target.crashed <- true;
    Queue.clear target.pending;
    ready_remove rt target;
    rt.stalled <- List.filter (fun th -> th != target) rt.stalled;
    target.stalled_until <- -1;
    (* The fiber is abandoned, not unwound: a crashed thread's shadow stack
       and register file keep their last contents, exactly like a real
       thread that died at an arbitrary instruction. *)
    target.status <- Done;
    target.saved <- [];
    target.resume <- Idle;
    rt.live <- rt.live - 1;
    remove_active rt target;
    (* the fiber is abandoned mid-flight: any critical section it held
       would otherwise stay open forever *)
    if !crit_tid = target_tid then begin
      crit_depth := 0;
      crit_tid := -1
    end;
    emit rt reporter (Trace.Crashed { tid = target_tid })
  end

let do_stall rt reporter target_tid cycles =
  let target = get_thread rt target_tid in
  if target.status <> Done && not (is_stalled target) then begin
    rt.sim_stats.stalls <- rt.sim_stats.stalls + 1;
    let until =
      match cycles with None -> max_int | Some c -> max rt.now target.clock + max c 0
    in
    target.stalled_until <- until;
    target.boosted <- false;
    ready_remove rt target;
    remove_active rt target;
    rt.stalled <- target :: rt.stalled;
    emit rt reporter
      (Trace.Stalled
         { tid = target_tid; until = (if until = max_int then None else Some until) })
  end

let[@inline] wake_stalled rt =
  match rt.stalled with
  | [] -> ()
  | stalled ->
      let woken, still = List.partition (fun th -> th.stalled_until <= rt.now) stalled in
      rt.stalled <- still;
      List.iter
        (fun th ->
          th.stalled_until <- -1;
          if th.clock < rt.now then th.clock <- rt.now;
          emit rt th (Trace.Recovered { tid = th.tid });
          if Queue.is_empty th.pending then ready_push rt th else ready_push_front rt th)
        woken

let describe_thread th =
  let state =
    if th.stalled_until = max_int then "stalled forever"
    else if th.stalled_until >= 0 then Fmt.str "stalled until t=%d" th.stalled_until
    else if th.on_core then "on core"
    else "ready"
  in
  let note = match th.wait_note with None -> "" | Some n -> Fmt.str " (%s)" (n ()) in
  let sigs =
    if Queue.is_empty th.pending then ""
    else Fmt.str " [%d pending signal%s]" (Queue.length th.pending)
      (if Queue.length th.pending = 1 then "" else "s")
  in
  Fmt.str "t%d %s%s%s" th.tid state note sigs

let blocked_summary rt =
  let blocked = ref [] in
  for i = rt.nthreads - 1 downto 0 do
    let th = rt.threads.(i) in
    if th.status <> Done then blocked := describe_thread th :: !blocked
  done;
  Fmt.str "%d threads alive but none runnable: %s" rt.live (String.concat "; " !blocked)

(* A pending neutralization (armed by a signal handler via [E_neutralize])
   fires at the victim's next abortable effect — shared-memory accesses,
   malloc, fence, yield.  Frees and frame pops are deliberately
   non-abortable so cleanup paths (freeing a node that lost its publishing
   CAS, unwinding shadow frames) can never be skipped; the abort stays
   pending until the next abortable op.  Nothing fires while a handler is
   still running. *)
let[@inline] abortable : type a. a Effect.t -> bool = function
  | E_read _ | E_write _ | E_cas _ | E_faa _ | E_fence | E_malloc _ | E_yield -> true
  | _ -> false

let[@inline] resume_with th k v = th.resume <- Cont (k, v)

let do_push_frame rt th n =
  if n < 0 then raise (Sim_error "push_frame: negative size");
  if th.sp + n > th.stack_base + th.stack_words then raise (Sim_error "shadow stack overflow");
  charge th rt.cfg.cost.local_op;
  let base = th.sp in
  th.sp <- th.sp + n;
  for i = base to th.sp - 1 do
    Mem.raw_write rt.mem i 0
  done;
  base

let do_pop_frame rt th base =
  if base < th.stack_base || base > th.sp then raise (Sim_error "pop_frame: bad frame base");
  charge th rt.cfg.cost.local_op;
  th.sp <- base

let rec make_handler : t -> thread -> (unit, unit) Effect.Deep.handler =
 fun rt th ->
  let open Effect.Deep in
  (* [effc] runs an effect's operation at once; the handler it returns
     only files the fiber's continuation and result in [th.resume] for the
     thread's next step.  Most effects return an int, a bool or unit:
     their result travels in [rt.op_result] to a handler built here once
     per fiber, so handling one allocates nothing but the resume block. *)
  let int_k = Some (fun k -> resume_with th k rt.op_result) in
  let bool_k = Some (fun k -> resume_with th k (rt.op_result <> 0)) in
  let unit_k = Some (fun k -> resume_with th k ()) in
  let int v =
    rt.op_result <- v;
    int_k
  in
  let bool b =
    rt.op_result <- Bool.to_int b;
    bool_k
  in
  let value v = Some (fun k -> resume_with th k v) in
  {
    retc = (fun () -> fiber_done rt th);
    exnc = (fun e -> thread_fail rt th e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match th.abort_pending with
        | Some e when th.sig_depth = 0 && abortable eff ->
            th.abort_pending <- None;
            Some (fun k -> th.resume <- Abort (k, e))
        | _ -> (
            (* an operation that raises fails the calling thread at its
               next step, never the scheduler *)
            try
              match eff with
              | E_read addr -> int (do_read rt th addr)
              | E_write (addr, v) ->
                  do_write rt th addr v;
                  unit_k
              | E_cas (addr, e0, d) -> bool (do_cas rt th addr e0 d)
              | E_faa (addr, d) -> int (do_faa rt th addr d)
              | E_fence ->
                  rt.sim_stats.fences <- rt.sim_stats.fences + 1;
                  charge th rt.cfg.cost.fence;
                  unit_k
              | E_malloc n ->
                  rt.sim_stats.mallocs <- rt.sim_stats.mallocs + 1;
                  charge th rt.cfg.cost.malloc;
                  let addr = Alloc.malloc rt.alloc ~tid:th.tid n in
                  mirror_into_regs rt th (Ptr.of_addr addr);
                  int addr
              | E_free addr ->
                  rt.sim_stats.frees <- rt.sim_stats.frees + 1;
                  charge th rt.cfg.cost.free;
                  Alloc.free rt.alloc ~tid:th.tid addr;
                  unit_k
              | E_region n ->
                  charge th rt.cfg.cost.malloc;
                  int (Alloc.alloc_region rt.alloc n)
              | E_yield ->
                  rt.sim_stats.yields <- rt.sim_stats.yields + 1;
                  charge th rt.cfg.cost.yield;
                  th.wants_yield <- true;
                  unit_k
              | E_advance n ->
                  charge th (max n 0);
                  unit_k
              | E_now -> int th.clock
              | E_self -> int th.tid
              | E_rand n -> int (Splitmix.below th.rng n)
              | E_spawn f ->
                  charge th rt.cfg.cost.spawn;
                  let child = new_thread rt f in
                  child.clock <- th.clock;
                  ready_push rt child;
                  int child.tid
              | E_join target ->
                  (* the first attempt runs at the thread's next step *)
                  ignore (get_thread rt target : thread);
                  let note = Some (fun () -> Fmt.str "joining thread %d" target) in
                  Some (fun k -> th.resume <- Join (k, target, note))
              | E_is_done target -> bool (thread_done rt target)
              | E_signal target ->
                  do_signal rt th target;
                  unit_k
              | E_set_handler f ->
                  th.handler <- Some f;
                  charge th rt.cfg.cost.local_op;
                  unit_k
              | E_sig_depth -> int th.sig_depth
              | E_push_frame n -> int (do_push_frame rt th n)
              | E_pop_frame base ->
                  do_pop_frame rt th base;
                  unit_k
              | E_stack_range -> value (th.stack_base, th.sp)
              | E_reg_range -> value (th.reg_base, th.reg_words)
              | E_save_regs ->
                  charge th (th.reg_words * rt.cfg.cost.local_op);
                  copy_regs rt ~src:th.reg_base ~dst:th.manual_save_base th.reg_words;
                  unit_k
              | E_saved_reg_range ->
                  let base =
                    match th.sig_saves with
                    | save :: _ -> save
                    | [] -> th.manual_save_base
                  in
                  value (base, th.reg_words)
              | E_clear_regs ->
                  charge th (th.reg_words * rt.cfg.cost.local_op);
                  for i = 0 to th.reg_words - 1 do
                    Mem.raw_write rt.mem (th.reg_base + i) 0
                  done;
                  unit_k
              | E_add_range (base, len) ->
                  th.private_ranges <- (base, len) :: th.private_ranges;
                  charge th rt.cfg.cost.local_op;
                  unit_k
              | E_remove_range (base, len) ->
                  let removed = ref false in
                  th.private_ranges <-
                    List.filter
                      (fun r ->
                        if (not !removed) && r = (base, len) then begin
                          removed := true;
                          false
                        end
                        else true)
                      th.private_ranges;
                  charge th rt.cfg.cost.local_op;
                  unit_k
              | E_ranges -> value th.private_ranges
              | E_ranges_of target -> value (ranges_of_thread (get_thread rt target))
              | E_steps -> int rt.sim_stats.steps
              | E_crash target ->
                  charge th rt.cfg.cost.local_op;
                  if target = th.tid then
                    (* self-crash: the continuation is abandoned, never
                       resumed *)
                    Some (fun _ -> do_crash rt th target)
                  else begin
                    do_crash rt th target;
                    unit_k
                  end
              | E_stall (target, cycles) ->
                  (* a self-stalling thread resumes here when its deadline
                     passes *)
                  charge th rt.cfg.cost.local_op;
                  do_stall rt th target cycles;
                  unit_k
              | E_unstall target ->
                  let t = get_thread rt target in
                  (* retime the deadline to "now"; [wake_stalled] does the
                     actual wake (and emits Recovered) at the next
                     scheduling point, so release shares one code path
                     with bounded-stall expiry *)
                  if is_stalled t then t.stalled_until <- rt.now;
                  unit_k
              | E_drop_signals (target, n) ->
                  (get_thread rt target).drop_sigs <- max 0 n;
                  unit_k
              | E_delay_signals (target, cycles) ->
                  (get_thread rt target).sig_delay <- max 0 cycles;
                  unit_k
              | E_wait_note n ->
                  th.wait_note <- n;
                  unit_k
              | E_note msg ->
                  Some
                    (fun k ->
                      emit rt th (Trace.Note { tid = th.tid; msg });
                      resume_with th k ())
              | E_is_crashed target -> bool (get_thread rt target).crashed
              | E_is_stalled target -> bool (is_stalled (get_thread rt target))
              | E_clock_of target -> int (get_thread rt target).clock
              | E_neutralize e ->
                  charge th rt.cfg.cost.local_op;
                  th.abort_pending <- Some e;
                  unit_k
              | E_cancel_neutralize ->
                  charge th rt.cfg.cost.local_op;
                  th.abort_pending <- None;
                  unit_k
              | _ -> None
            with e -> Some (fun k -> th.resume <- Abort (k, e))));
  }

and new_thread : t -> (unit -> unit) -> thread =
 fun rt body ->
  let tid = rt.nthreads in
  let stack_base = Alloc.alloc_region rt.alloc rt.cfg.stack_words in
  let reg_base = Alloc.alloc_region rt.alloc rt.cfg.reg_words in
  let manual_save_base = Alloc.alloc_region rt.alloc rt.cfg.reg_words in
  let th =
    {
      tid;
      clock = 0;
      status = Ready;
      resume = Fiber body;
      saved = [];
      on_core = false;
      core_since = 0;
      ever_scheduled = false;
      boosted = false;
      wants_yield = false;
      stack_base;
      stack_words = rt.cfg.stack_words;
      sp = stack_base;
      reg_base;
      reg_words = rt.cfg.reg_words;
      manual_save_base;
      sig_saves = [];
      save_pool = [];
      reg_cursor = 0;
      handler = None;
      pending = Queue.create ();
      sig_depth = 0;
      failure = None;
      rng = Splitmix.split rt.rng;
      private_ranges = [];
      stalled_until = -1;
      crashed = false;
      drop_sigs = 0;
      sig_delay = 0;
      wait_note = None;
      abort_pending = None;
      prio =
        (match rt.cfg.sched with
        | Pct _ -> 1 + Splitmix.below rt.rng 1_000_000_000
        | Timed | Uniform -> 0);
    }
  in
  if tid >= Array.length rt.threads then begin
    let cap = max 8 (2 * Array.length rt.threads) in
    let bigger = Array.make cap th in
    Array.blit rt.threads 0 bigger 0 tid;
    rt.threads <- bigger;
    let pos = Array.make cap (-1) in
    Array.blit rt.heap_pos 0 pos 0 tid;
    rt.heap_pos <- pos
  end;
  rt.threads.(tid) <- th;
  rt.nthreads <- rt.nthreads + 1;
  rt.live <- rt.live + 1;
  rt.sim_stats.spawns <- rt.sim_stats.spawns + 1;
  th

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

(* The functions a step runs are [@inline], here and in the heap and
   memory-op helpers above: folded into the step loop, a 64-thread run
   steps about 10 % faster (docs/PERF.md, "Simulator step"). *)

let[@inline] runnable th = match th.resume with Idle -> false | _ -> true

let[@inline] deliver_signal rt th =
  match th.handler with
  | Some h
    when (not (Queue.is_empty th.pending))
         && Queue.peek th.pending <= th.clock
         && runnable th ->
      ignore (Queue.pop th.pending);
      rt.sim_stats.signals_delivered <- rt.sim_stats.signals_delivered + 1;
      charge th rt.cfg.cost.signal_dispatch;
      (* The kernel saves the interrupted context; the handler scans this
         snapshot, not the registers its own execution clobbers. *)
      let save =
        match th.save_pool with
        | s :: rest ->
            th.save_pool <- rest;
            s
        | [] -> Alloc.alloc_region rt.alloc th.reg_words
      in
      copy_regs rt ~src:th.reg_base ~dst:save th.reg_words;
      th.sig_saves <- save :: th.sig_saves;
      th.sig_depth <- th.sig_depth + 1;
      emit rt th (Trace.Signal_delivered { tid = th.tid; depth = th.sig_depth });
      th.saved <- th.resume :: th.saved;
      th.resume <- Fiber h
  | _ -> ()

let[@inline] capacity rt = if unlimited rt then max_int else rt.cfg.cores

let[@inline] refill rt =
  while rt.nactive < capacity rt && ready_nonempty rt do
    match ready_pop rt with
    | None -> ()
    | Some th ->
        th.on_core <- true;
        th.boosted <- false;
        if th.ever_scheduled then begin
          if not (unlimited rt) then begin
            rt.sim_stats.ctx_switches <- rt.sim_stats.ctx_switches + 1;
            charge th rt.cfg.cost.context_switch
          end;
          emit rt th (Trace.Scheduled { tid = th.tid })
        end
        else emit rt th (Trace.Thread_started { tid = th.tid });
        th.ever_scheduled <- true;
        if th.clock < rt.now then th.clock <- rt.now;
        th.core_since <- th.clock;
        heap_push rt th
  done

(* PCT: strictly lower than every priority seen so far, so a demoted thread
   only runs once everyone above it is blocked or done. *)
let demote rt th =
  rt.floor_prio <- rt.floor_prio - 1;
  th.prio <- rt.floor_prio

(* While a critical section is open its owner runs next, if it can: the
   section must be scheduling-atomic.  An owner that was crashed clears
   the state in [do_crash]; an owner that was stalled mid-section cannot
   run, so the pin is waived rather than deadlocking the schedule (fault
   injection under the analyzer is best-effort by design). *)
let[@inline] pinned_owner rt =
  if !crit_depth = 0 || !crit_tid < 0 || !crit_tid >= rt.nthreads then None
  else
    let th = rt.threads.(!crit_tid) in
    if th.status <> Done && th.on_core && runnable th then Some th else None

let[@inline] policy_pick rt =
  match rt.cfg.sched with
  | Timed -> rt.threads.(rt.heap_tid.(0))
  | Uniform ->
      (* adversarial exploration: any active thread may step next.  The
         walk is still deterministic in the seed, and execution order
         still defines a sequentially consistent history. *)
      rt.threads.(rt.heap_tid.(Splitmix.below rt.rng rt.nactive))
  | Pct _ ->
      (* highest priority steps; at each change point the running thread
         drops below everyone, handing the schedule over *)
      let best = ref rt.threads.(rt.heap_tid.(0)) in
      for i = 1 to rt.nactive - 1 do
        let th = rt.threads.(rt.heap_tid.(i)) in
        if th.prio > !best.prio || (th.prio = !best.prio && th.tid < !best.tid) then best := th
      done;
      let best = !best in
      rt.sched_steps <- rt.sched_steps + 1;
      (match rt.pct_points with
      | cp :: rest when rt.sched_steps >= cp ->
          rt.pct_points <- rest;
          demote rt best;
          emit rt best (Trace.Priority_changed { tid = best.tid; prio = best.prio })
      | _ -> ());
      best

let[@inline] pick_next rt =
  if rt.nactive = 0 then raise (Sim_error "no runnable thread at a decision point");
  match pinned_owner rt with Some th -> th | None -> policy_pick rt

let deschedule rt th =
  remove_active rt th;
  ready_push rt th;
  emit rt th (Trace.Descheduled { tid = th.tid })

let[@inline] post_step rt th =
  if
    th.status <> Done && th.on_core
    && not (unlimited rt)
    && not (!crit_depth > 0 && !crit_tid = th.tid)
  then begin
    let others_waiting = ready_nonempty rt in
    if
      others_waiting
      && (th.wants_yield || rt.want_preempt || th.clock - th.core_since >= rt.cfg.quantum)
    then begin
      deschedule rt th;
      rt.want_preempt <- false
    end
  end;
  (* Under PCT a yield demotes: spin-wait loops (locks, ack waits, joins)
     always hand the schedule to whoever they are waiting for, so blocking
     protocols keep making progress under priority scheduling. *)
  (match rt.cfg.sched with
  | Pct _ when th.wants_yield && th.status <> Done -> demote rt th
  | _ -> ());
  th.wants_yield <- false;
  (* the stepped thread's clock advanced; restore the heap invariant *)
  if th.on_core && rt.heap_pos.(th.tid) >= 0 then begin
    sync_current_key rt;
    sift_down rt rt.heap_pos.(th.tid)
  end;
  rt.current <- -1

let[@inline] step rt th =
  rt.current <- th.tid;
  cur_tid := th.tid;
  deliver_signal rt th;
  if th.clock > rt.now then rt.now <- th.clock;
  rt.sim_stats.steps <- rt.sim_stats.steps + 1;
  if rt.sim_stats.steps > rt.cfg.max_steps then raise Step_limit_exceeded;
  (match th.resume with
  | Idle -> raise (Sim_error "scheduled a thread with nothing to run")
  | Fiber f ->
      th.resume <- Idle;
      Effect.Deep.match_with f () (make_handler rt th)
  | Cont (k, v) ->
      th.resume <- Idle;
      Effect.Deep.continue k v
  | Abort (k, e) ->
      th.resume <- Idle;
      Effect.Deep.discontinue k e
  | Join (k, target, note) ->
      if thread_done rt target then begin
        th.resume <- Idle;
        th.wait_note <- None;
        Effect.Deep.continue k ()
      end
      else begin
        (* not yet: yield and retry at the next step *)
        th.wait_note <- note;
        rt.sim_stats.yields <- rt.sim_stats.yields + 1;
        charge th rt.cfg.cost.yield;
        th.wants_yield <- true
      end);
  post_step rt th

(* ------------------------------------------------------------------ *)
(* Public API                                                         *)
(* ------------------------------------------------------------------ *)

let create cfg =
  (* stale pin state can only survive a run that crashed a fiber inside
     a critical section; never let it leak into the next run *)
  crit_depth := 0;
  crit_tid := -1;
  cur_tid := -1;
  let mem = Mem.create ~strict:cfg.strict_mem ~capacity_limit:cfg.mem_capacity () in
  (* max_threads for allocator caches: grown lazily via modulo mapping is
     wrong; instead size generously and let Alloc index by tid directly. *)
  let alloc = Alloc.create ~sanitize:cfg.sanitize ~max_threads:4096 mem in
  let rng = Splitmix.create cfg.seed in
  let pct_points =
    match cfg.sched with
    | Pct { change_points; expected_steps } ->
        List.init change_points (fun _ -> 1 + Splitmix.below rng (max 1 expected_steps))
        |> List.sort_uniq compare
    | Timed | Uniform -> []
  in
  {
    cfg;
    mem;
    alloc;
    threads = [||];
    nthreads = 0;
    ready_front = [];
    ready_back = [];
    heap_tid = [||];
    heap_key = [||];
    heap_pos = [||];
    nactive = 0;
    live = 0;
    now = 0;
    want_preempt = false;
    started = false;
    sim_stats = make_stats ();
    rng;
    pct_points;
    floor_prio = 0;
    sched_steps = 0;
    current = -1;
    stalled = [];
    op_result = 0;
  }

let add_thread rt body =
  if rt.started then invalid_arg "Runtime.add_thread: already started";
  let th = new_thread rt body in
  ready_push rt th;
  th.tid

let mem rt = rt.mem

let alloc rt = rt.alloc

let stats rt = rt.sim_stats

let running_tid rt = if rt.current >= 0 then Some rt.current else None

let collect_failures rt =
  let fs = ref [] in
  for i = rt.nthreads - 1 downto 0 do
    match rt.threads.(i).failure with
    | Some e -> fs := (i, e) :: !fs
    | None -> ()
  done;
  !fs

(* ---- the scheduler loop ----

   [advance_phase] (wake stalled threads, refill cores) runs before
   *every* pick. *)

let[@inline] advance_phase rt =
  wake_stalled rt;
  refill rt;
  if not (ready_nonempty rt) then rt.want_preempt <- false

(* Whether the run can still step; drives virtual time over stall gaps.
   Returns [true] with the runtime at a decision point ([nactive > 0]). *)
let rec progress rt =
  if rt.nactive > 0 then true
  else if rt.live = 0 then false
  else begin
    (* Nothing runnable.  If a stalled thread has a finite deadline, jump
       virtual time forward to the earliest wake-up.  If every remaining
       live thread is stalled forever, the run is over and they are
       reported as abandoned.  Anything else is a genuine deadlock: report
       who is blocked and on what. *)
    let next_wake =
      List.fold_left
        (fun acc th -> if th.stalled_until < acc then th.stalled_until else acc)
        max_int rt.stalled
    in
    if next_wake < max_int then begin
      rt.now <- max rt.now next_wake;
      advance_phase rt;
      progress rt
    end
    else if rt.stalled <> [] && List.length rt.stalled = rt.live then false
    else raise (Deadlock (blocked_summary rt))
  end

let result_of rt =
  let abandoned =
    List.filter_map (fun th -> if th.status <> Done then Some th.tid else None) rt.stalled
    |> List.sort compare
  in
  let failures = collect_failures rt in
  (match failures with
  | (tid, e) :: _ when rt.cfg.propagate_failures -> raise (Thread_failure (tid, e))
  | _ -> ());
  { elapsed = rt.now; run_stats = rt.sim_stats; failures; abandoned }

let start rt =
  if rt.started then invalid_arg "Runtime.start: already started";
  rt.started <- true;
  (* same reset as [create]: a pin left by an earlier run in this process
     must not decide this run's first pick *)
  crit_depth := 0;
  crit_tid := -1;
  advance_phase rt;
  while progress rt do
    step rt (pick_next rt);
    advance_phase rt
  done;
  result_of rt

let run ?(config = default_config) main =
  let rt = create config in
  ignore (add_thread rt main);
  start rt

(* Effect-performing wrappers *)

let read addr = Effect.perform (E_read addr)

(* TS-Scan's range op is a plain [read] loop plus the window test here:
   traces, schedules and checker sweeps are exactly those of the loop. *)
let scan_words base len ~lo ~hi f =
  for a = base to base + len - 1 do
    let w = read a in
    if w >= lo && w <= hi then f w
  done

(* The master-buffer search is the reference [read] loop too. *)
let search base n key = Ts_rt.search_by read base n key

let write addr v = Effect.perform (E_write (addr, v))

(* So are the reclamation phase's buffer loops. *)
let drain ring len ~dst ~cap cursor = Ts_rt.drain_by read write ring len ~dst ~cap cursor
let read_words base n into = Ts_rt.read_words_by read base n into
let publish ~entries ~marks src n = Ts_rt.publish_by write ~entries ~marks src n

let sweep ~entries ~marks ~ignore_marks n unmarked =
  Ts_rt.sweep_by read write ~entries ~marks ~ignore_marks n unmarked

let cas addr expected desired = Effect.perform (E_cas (addr, expected, desired))

let faa addr delta = Effect.perform (E_faa (addr, delta))

let fence () = Effect.perform E_fence

let malloc n = Effect.perform (E_malloc n)

let free addr = Effect.perform (E_free addr)

let alloc_region n = Effect.perform (E_region n)

let yield () = Effect.perform E_yield

let advance n = Effect.perform (E_advance n)

let now () = Effect.perform E_now

let self () = Effect.perform E_self

let rand_below n = Effect.perform (E_rand n)

let spawn f = Effect.perform (E_spawn f)

let join tid = Effect.perform (E_join tid)

let is_done tid = Effect.perform (E_is_done tid)

let signal tid = Effect.perform (E_signal tid)

let set_signal_handler f = Effect.perform (E_set_handler f)

let signal_depth () = Effect.perform E_sig_depth

let neutralize e = Effect.perform (E_neutralize e)

let cancel_neutralize () = Effect.perform E_cancel_neutralize

let push_frame n = Effect.perform (E_push_frame n)

let pop_frame base = Effect.perform (E_pop_frame base)

let stack_range () = Effect.perform E_stack_range

let reg_range () = Effect.perform E_reg_range

let save_regs () = Effect.perform E_save_regs

let saved_reg_range () = Effect.perform E_saved_reg_range

let clear_regs () = Effect.perform E_clear_regs

let add_private_range base len = Effect.perform (E_add_range (base, len))

let remove_private_range base len = Effect.perform (E_remove_range (base, len))

let private_ranges () = Effect.perform E_ranges

let scan_ranges_of tid = Effect.perform (E_ranges_of tid)

let steps_now () = Effect.perform E_steps

(* Fault injection *)

let crash tid = Effect.perform (E_crash tid)

let stall ?cycles tid = Effect.perform (E_stall (tid, cycles))

let unstall tid = Effect.perform (E_unstall tid)

let drop_signals tid n = Effect.perform (E_drop_signals (tid, n))

let delay_signals tid cycles = Effect.perform (E_delay_signals (tid, cycles))

let is_crashed tid = Effect.perform (E_is_crashed tid)

let is_stalled tid = Effect.perform (E_is_stalled tid)

let clock_of tid = Effect.perform (E_clock_of tid)

let set_wait_note n = Effect.perform (E_wait_note n)

let note msg = Effect.perform (E_note msg)

(* Backend registration: the whole algorithm stack calls [Ts_rt], which
   dispatches to whichever backend registered last.  The sim op wrappers
   above are plain [Effect.perform] closures, so the record is static;
   entering the simulator (create/start/run) re-installs it, which lets
   sim and native runs alternate freely within one process. *)

let rt_ops : Ts_rt.ops =
  {
    Ts_rt.read;
    scan_words;
    search;
    drain;
    read_words;
    publish;
    sweep;
    write;
    cas;
    faa;
    fence;
    malloc;
    free;
    alloc_region;
    yield;
    advance;
    now;
    self;
    rand_below;
    steps_now;
    spawn;
    join;
    is_done;
    poll = (fun () -> ());
    signal;
    set_signal_handler;
    signal_depth;
    neutralize;
    cancel_neutralize;
    push_frame;
    pop_frame;
    stack_range;
    reg_range;
    save_regs;
    saved_reg_range;
    clear_regs;
    add_private_range;
    remove_private_range;
    private_ranges;
    scan_ranges_of;
    crash;
    stall = (fun cycles tid -> stall ?cycles tid);
    unstall;
    drop_signals;
    delay_signals;
    (* virtual time only: sleeping in the sim is just advancing *)
    sleep = advance;
    is_crashed;
    is_stalled;
    clock_of;
    set_wait_note;
    note;
    (* Exactly one fiber runs at a time, so mutual exclusion is free —
       but a decorator performing effects inside [critical] also needs
       the section to be scheduling-atomic, so the owner is pinned until
       the depth returns to zero (see [pinned_owner]). *)
    critical =
      (fun f ->
        if !crit_depth = 0 then crit_tid := !cur_tid;
        incr crit_depth;
        Fun.protect
          ~finally:(fun () ->
            decr crit_depth;
            if !crit_depth = 0 then crit_tid := -1)
          f);
  }

let create cfg =
  Ts_rt.install rt_ops;
  create cfg

let start rt =
  Ts_rt.install rt_ops;
  Ts_rt.enter_run ();
  Fun.protect ~finally:Ts_rt.exit_run (fun () -> start rt)

let run ?config main =
  Ts_rt.install rt_ops;
  Ts_rt.enter_run ();
  Fun.protect ~finally:Ts_rt.exit_run (fun () -> run ?config main)
