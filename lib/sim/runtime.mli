(** Deterministic simulated multiprocessor.

    Threads are OCaml 5 fibers; every shared-memory operation is an effect.
    The scheduler executes exactly one operation per step, always choosing
    the active thread with the smallest virtual clock, which yields a
    sequentially consistent interleaving whose timing follows the
    {!Ts_rt.Cost_model}.  [cores] simulated cores are multiplexed among threads
    with a quantum and context-switch costs, reproducing oversubscription.

    POSIX-style signals: {!signal} enqueues a signal for a target thread; a
    handler fiber is pushed on top of the target's execution before its next
    step (handlers nest, as §4.2 of the paper describes).  A descheduled
    target is priority-boosted, modelling the kernel making a signaled
    thread runnable promptly.

    Every thread owns a shadow stack and a register file *inside the
    unmanaged heap*; the result of every load is automatically mirrored into
    the register file, so a value "in flight" between a load and its stack
    store is visible to conservative scans — the reason ThreadScan scans
    registers at all.

    A run is a pure function of its configuration (including [seed]): no
    wall clock, no global randomness.  It executes once, by {!start}, to
    completion; the way to reproduce a run is to run the same
    configuration again. *)

type tid = int

exception Deadlock of string
exception Step_limit_exceeded
exception Thread_failure of tid * exn
exception Sim_error of string

(** {1 Configuration} *)

type sched =
  | Timed
      (** step the active thread with the smallest virtual clock — the
          default, cost-model-faithful interleaving *)
  | Uniform
      (** step a uniformly random active thread: timing stops being
          meaningful, but the seed-indexed family of runs explores far more
          interleavings — a lightweight model-checking mode *)
  | Pct of { change_points : int; expected_steps : int }
      (** PCT-style priority scheduling (Burckhardt et al., ASPLOS 2010):
          every thread gets a random priority at spawn and the
          highest-priority active thread always steps; at [change_points]
          step indices sampled uniformly in [\[1, expected_steps\]] the
          running thread's priority drops below everyone else's, which
          hits bugs of preemption depth [change_points + 1] with known
          probability.  A {!yield} also demotes the yielding thread, so
          spin-wait loops always hand the schedule to the thread they wait
          for — blocking protocols stay live under priority scheduling.
          Intended for [cores <= 0]. *)

type config = {
  cost : Ts_rt.Cost_model.t;
  cores : int;  (** [<= 0] means one core per thread (never preempt) *)
  quantum : int;  (** cycles a thread may hold a core while others wait *)
  seed : int;
  stack_words : int;  (** shadow-stack size per thread *)
  reg_words : int;  (** register-file size per thread *)
  mem_capacity : int;  (** word limit of the unmanaged heap *)
  strict_mem : bool;  (** raise on memory faults (vs. count only) *)
  sanitize : bool;
      (** heap-sanitizer mode: the allocator adds canary words and
          allocation-generation counters (see {!Ts_umem.Alloc}); changes
          block layout, so off by default *)
  max_steps : int;  (** hard step bound, guards against livelock *)
  propagate_failures : bool;  (** re-raise the first thread failure after the run *)
  trace : (Trace.entry -> unit) option;
      (** scheduling/signal event stream (see {!Trace.recorder}) *)
  sched : sched;  (** scheduling policy (default {!Timed}) *)
}

val default_config : config

(** {1 Statistics} *)

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
  mutable crashes : int;  (** fault injection: fibers killed via {!crash} *)
  mutable stalls : int;  (** fault injection: threads descheduled via {!stall} *)
  mutable signals_dropped : int;  (** fault injection: signals lost via {!drop_signals} *)
}

type result = {
  elapsed : int;  (** virtual cycles at the end of the run *)
  run_stats : stats;
  failures : (tid * exn) list;
  abandoned : tid list;
      (** threads stalled forever when every other thread had finished: the
          run ends (they can never step again) and they are reported here
          instead of raising {!Deadlock} *)
}

(** {1 Running} *)

type t

val create : config -> t

val add_thread : t -> (unit -> unit) -> tid
(** Register a thread before {!start}.  The first added thread has tid 0. *)

val start : t -> result
(** Runs until every thread has finished.  @raise Thread_failure (when
    [propagate_failures]), @raise Deadlock, @raise Step_limit_exceeded.
    The [Deadlock] payload lists every blocked thread and what it is
    blocked on (stall state, pending signals, and the {!set_wait_note}
    annotation protocols attach while spinning). *)

val blocked_summary : t -> string
(** The per-thread blocked-state report used as the {!Deadlock} payload;
    also useful for post-mortem diagnostics in tests. *)

val run : ?config:config -> (unit -> unit) -> result
(** [run main] = create + add main + start.  [main] can {!spawn} workers. *)

val mem : t -> Ts_umem.Mem.t
(** The unmanaged heap, for post-run assertions. *)

val alloc : t -> Ts_umem.Alloc.t

val stats : t -> stats

val running_tid : t -> int option
(** The thread currently being stepped; [None] outside a step.  Lets
    fault hooks installed on {!mem} attribute a fault to a thread. *)

(** {1 Operations (only valid inside a running thread)} *)

val read : int -> int
(** Shared-memory load of one word; the value is mirrored into the calling
    thread's register file. *)

val write : int -> int -> unit

val cas : int -> int -> int -> bool
(** [cas addr expected desired] — atomic compare-and-swap. *)

val faa : int -> int -> int
(** [faa addr delta] — atomic fetch-and-add, returns the previous value. *)

val fence : unit -> unit

val malloc : int -> int
(** Allocates [n] words from the simulated allocator; returns the block's
    base address. *)

val free : int -> unit

val alloc_region : int -> int
(** Permanent region (no header, never freed): global variables, buffers. *)

val yield : unit -> unit
(** Voluntarily relinquish the core when others are waiting. *)

val advance : int -> unit
(** Burn [n] cycles of pure computation (models local work / busy-wait). *)

val now : unit -> int
(** The calling thread's virtual clock. *)

val self : unit -> tid

val rand_below : int -> int
(** Deterministic per-thread random value in [\[0, n)]. *)

val steps_now : unit -> int
(** The global scheduler step count at this instant.  Every shared-memory
    operation is one step and execution is sequentially consistent in step
    order, so two step stamps totally order any two operations — the
    timestamps history recorders and linearizability checkers need. *)

val spawn : (unit -> unit) -> tid

val join : tid -> unit
(** Spin (with {!yield}) until the target finishes. *)

val is_done : tid -> bool

val signal : tid -> unit
(** Send the (single) simulated signal to a thread; its handler runs before
    that thread's next application step. *)

val set_signal_handler : (unit -> unit) -> unit
(** Install the calling thread's signal handler. *)

val signal_depth : unit -> int
(** How many nested signal handlers the calling thread is currently in. *)

val neutralize : exn -> unit
(** Called from inside a signal handler: arm a neutralization of the
    interrupted context.  Once every pending handler has returned, the
    thread raises [exn] at its next abortable effect (read / write / cas /
    faa / fence / malloc / yield — {e not} free or pop_frame, so cleanup
    code still runs).  A handler must use this instead of raising: a
    handler fiber that raises kills its thread. *)

val cancel_neutralize : unit -> unit
(** Clear any neutralization pending on the calling thread. *)

(** {1 Shadow stack, registers, private ranges} *)

val push_frame : int -> int
(** [push_frame n] reserves [n] zeroed shadow-stack slots; returns the frame
    base address.  @raise Sim_error on shadow-stack overflow. *)

val pop_frame : int -> unit
(** [pop_frame base] releases the frame pushed at [base].  Popped slots are
    deliberately not cleared: like a real stack, stale words linger and a
    conservative scan may see them. *)

val stack_range : unit -> int * int
(** [(base, sp)] of the calling thread — the live extent a scan must cover. *)

val reg_range : unit -> int * int
(** [(base, len)] of the calling thread's register file. *)

val save_regs : unit -> unit
(** Snapshot the calling thread's register file into its save area — what
    the kernel does implicitly on signal delivery.  A scanner that is about
    to clobber its own registers (the reclaimer scanning itself) calls this
    first. *)

val saved_reg_range : unit -> int * int
(** [(base, len)] of the register context a conservative scan must cover:
    inside a signal handler, the interrupted context saved at delivery
    (restored by the simulated [sigreturn] when the handler finishes);
    otherwise the snapshot taken by the last {!save_regs}. *)

val clear_regs : unit -> unit
(** Zero the calling thread's register file — a function deliberately
    clobbering its registers.  Used by end-of-run reclamation to drop the
    conservative pins its own register traffic would otherwise create. *)

val add_private_range : int -> int -> unit
(** Declare [(base, len)] as holding private references of the calling
    thread (the §4.3 heap-block extension's underlying registry). *)

val remove_private_range : int -> int -> unit

val private_ranges : unit -> (int * int) list

val scan_ranges_of : tid -> (int * int) list
(** All ranges a conservative scan of thread [tid] must cover: live stack,
    register file, saved register contexts (manual snapshot and any
    signal-time saves), registered private ranges.  Usable from any thread
    (the data is private to the runtime, not the target) — this is what a
    reclaimer proxy-scanning a crashed or stalled thread reads. *)

(** {1 Fault injection}

    Deterministic, seedable fault primitives for robustness testing.  All
    of them are ordinary effects performed by a running thread (a fault
    "injector" is just another thread), so every fault lands at a precise,
    reproducible point in the interleaving. *)

val crash : tid -> unit
(** Kill a thread's fiber at this instant: it never runs again, its stack
    and registers are left exactly as they were (no unwinding, no cleanup —
    like [SIGKILL] mid-instruction).  Pending signals are discarded.  The
    thread counts as finished for {!join}/{!is_done}.  Crashing yourself
    never returns.  Idempotent on already-finished threads. *)

val stall : ?cycles:int -> tid -> unit
(** Deschedule a thread: it takes no steps until [cycles] virtual cycles
    have passed (omitted = stalled forever).  Signals sent to a stalled
    thread pend and deliver on wake-up.  If every remaining thread is
    stalled forever the run ends and reports them in [result.abandoned].
    Stalling yourself resumes after the deadline.  No-op on finished or
    already-stalled threads. *)

val unstall : tid -> unit
(** Release a stalled thread early: its wake deadline is retimed to the
    current virtual time and it resumes (emitting
    {!Trace.event.Recovered}) at the next scheduling point.  This is the
    only way a [stall] with no [cycles] ends before the run does.  No-op
    on threads that are not stalled. *)

val drop_signals : tid -> int -> unit
(** The next [n] signals sent to the thread are silently lost (emitting
    {!Trace.event.Signal_dropped}). *)

val delay_signals : tid -> int -> unit
(** Subsequent signals sent to the thread deliver only once its clock
    reaches send-time + [cycles] ([0] restores prompt delivery). *)

val is_crashed : tid -> bool
(** Whether the thread was killed by {!crash} (distinguishes a crash from
    a normal exit, both of which satisfy {!is_done}). *)

val is_stalled : tid -> bool
(** Whether the thread is currently descheduled by {!stall}.  A stalled
    thread is frozen: until it wakes it takes no steps, so another thread
    may read its stack and registers without racing it. *)

val clock_of : tid -> int
(** The thread's virtual clock.  Every step it takes advances it, so an
    unchanged clock across two reads proves the thread ran nothing in
    between — how a proxy scanner checks its subject stayed frozen. *)

val set_wait_note : (unit -> string) option -> unit
(** Annotate the calling thread with what it is currently blocked on
    ("ack wait: phase 3", "spinning on lock\@1024"); shown by {!Deadlock}
    diagnostics and {!blocked_summary}, which call the function.  Clear
    with [None] when done. *)

val note : string -> unit
(** Emit a free-form {!Trace.event.Note} entry on the trace stream — used
    by protocols to mark suspect/reap/takeover decisions on the timeline. *)
