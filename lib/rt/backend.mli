(** The execution interface every layer above the runtime is written
    against.  A backend (the deterministic simulator in [Ts_sim], real
    OCaml 5 domains in [Ts_par]) installs one {!ops} record; the stack
    calls the wrapper functions below and never names a backend.

    This interface is the surface the {!Ts_analyze} decorator wraps — it
    is frozen here so analysis tools can rely on the exact op set. *)

type tid = int

type ops = {
  (* unmanaged shared memory *)
  read : int -> int;
  scan_words : int -> int -> lo:int -> hi:int -> (int -> unit) -> unit;
  write : int -> int -> unit;
  cas : int -> int -> int -> bool;
  faa : int -> int -> int;
  fence : unit -> unit;
  malloc : int -> int;
  free : int -> unit;
  alloc_region : int -> int;
  (* scheduling *)
  yield : unit -> unit;
  advance : int -> unit;
  now : unit -> int;
  self : unit -> tid;
  rand_below : int -> int;
  steps_now : unit -> int;
  spawn : (unit -> unit) -> tid;
  join : tid -> unit;
  is_done : tid -> bool;
  poll : unit -> unit;
  (* signals *)
  signal : tid -> unit;
  set_signal_handler : (unit -> unit) -> unit;
  signal_depth : unit -> int;
  neutralize : exn -> unit;
  cancel_neutralize : unit -> unit;
  (* shadow stack, registers, scan ranges *)
  push_frame : int -> int;
  pop_frame : int -> unit;
  stack_range : unit -> int * int;
  reg_range : unit -> int * int;
  save_regs : unit -> unit;
  saved_reg_range : unit -> int * int;
  clear_regs : unit -> unit;
  add_private_range : int -> int -> unit;
  remove_private_range : int -> int -> unit;
  private_ranges : unit -> (int * int) list;
  scan_ranges_of : tid -> (int * int) list;
  (* fault status and diagnostics *)
  crash : tid -> unit;
  stall : int option -> tid -> unit;
  unstall : tid -> unit;
  drop_signals : tid -> int -> unit;
  delay_signals : tid -> int -> unit;
  sleep : int -> unit;
  is_crashed : tid -> bool;
  is_stalled : tid -> bool;
  clock_of : tid -> int;
  set_wait_note : string option -> unit;
  note : string -> unit;
  (* managed-heap mutual exclusion *)
  critical : 'a. (unit -> 'a) -> 'a;
}

(** {1 Backend registration}

    Registration is layered: a backend {!install}s a {e base} ops record,
    and an optional {e decorator} (set with {!set_decorator}) is applied
    on top of it.  The dispatch wrappers below always go through the
    decorated record.

    Reinstall semantics: a backend may re-install the {e same} base record
    at any time (the simulator does so on both [create] and [start]); the
    decorator is re-applied.  Installing a {e different} base record while
    a run is active (between {!enter_run} and {!exit_run}) raises
    [Failure] — a nested run of another backend cannot swap the ops out
    from under an attached analyzer.  Between runs, installing a different
    backend is allowed and is the normal way tests alternate sim and
    native execution. *)

val install : ops -> unit
(** Install a base ops record and recompute the decorated dispatch record.
    Raises [Failure] if a different base is already installed and a run is
    active. *)

val installed : unit -> bool
(** [true] once any backend has installed ops. *)

val ops : unit -> ops
(** The current (decorated) ops record; raises [Failure] if no backend is
    installed. *)

val base_ops : unit -> ops option
(** The currently installed base record, without decoration.  Backends use
    this to save/restore the previous backend around a run so they never
    capture (and later re-install) another tool's decorated record. *)

val set_decorator : (ops -> ops) option -> unit
(** Set or clear the ops decorator.  Takes effect immediately if a base is
    installed, and is (re-)applied on every subsequent {!install}. *)

val enter_run : unit -> unit
(** Mark the start of a backend run (bracketed by backends, not users). *)

val exit_run : unit -> unit
(** Mark the end of a backend run.  Extra calls at depth zero are ignored. *)

(** {1 Dispatch wrappers} *)

val read : int -> int

val scan_words : int -> int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [scan_words base len ~lo ~hi f] calls [f] on the value [w] of each
    word [base .. base + len - 1] with [lo <= w <= hi], in address order;
    [len <= 0] does nothing.  Observationally the same as [for a = base
    to base + len - 1 do let w = read a in if w >= lo && w <= hi then f
    w done]: each word is charged and checked as a [read], so [now ()]
    and the fault counters advance by the same amount.  On the native
    backend the per-op bookkeeping (poll, abort check, step count) runs
    once per range, and scanned words are not mirrored into the register
    ring: a scan compares each word and stores none, so no pointer it
    loads can be in flight.  A range wholly inside the caller's own
    shadow stack or register ring is loaded with plain loads: only the
    owner writes those words, in program order before this read, and
    they are permanent, so the checked load could never fault.
    Conservative scans (TS-Scan) are the only intended caller; every
    other access uses [read]. *)

val write : int -> int -> unit
val cas : int -> int -> int -> bool
val faa : int -> int -> int
val fence : unit -> unit
val malloc : int -> int
val free : int -> unit
val alloc_region : int -> int
val yield : unit -> unit
val advance : int -> unit
val now : unit -> int
val self : unit -> tid
val rand_below : int -> int
val steps_now : unit -> int
val spawn : (unit -> unit) -> tid
val join : tid -> unit
val is_done : tid -> bool
val poll : unit -> unit
val signal : tid -> unit
val set_signal_handler : (unit -> unit) -> unit
val signal_depth : unit -> int

val neutralize : exn -> unit
(** Called from inside a signal handler: arrange for the interrupted
    context to raise [exn] at its next abortable operation (shared-memory
    access, malloc, fence or yield — {e not} free or frame pops, so
    cleanup code still runs) once all pending handlers have returned.
    This is the DEBRA+ neutralizing primitive: the handler unpins its
    thread and the victim restarts its operation from the enclosing
    {!Ts_ds.Set_intf.wrap} bracket.  A handler must use this rather than
    raising directly — on the simulator a handler fiber that raises
    kills its thread. *)

val cancel_neutralize : unit -> unit
(** Clear any pending neutralization of the calling thread.  Schemes call
    this at the top of [op_end]: once the operation's work is complete, a
    late abort must not escape and retry a completed (already
    linearized) operation. *)

val push_frame : int -> int
val pop_frame : int -> unit
val stack_range : unit -> int * int
val reg_range : unit -> int * int
val save_regs : unit -> unit
val saved_reg_range : unit -> int * int
val clear_regs : unit -> unit
val add_private_range : int -> int -> unit
val remove_private_range : int -> int -> unit
val private_ranges : unit -> (int * int) list
val scan_ranges_of : tid -> (int * int) list
val crash : tid -> unit
val stall : ?cycles:int -> tid -> unit

val unstall : tid -> unit
(** Release a [stall ~cycles:None] (stall-forever) victim.  The victim
    wakes at its next scheduling opportunity; a no-op if the target is
    not stalled.  Idempotent. *)

val drop_signals : tid -> int -> unit
(** Arrange for the target's next [n] incoming phase signals to be
    dropped (never delivered).  Counts do not accumulate: the latest
    call wins. *)

val delay_signals : tid -> int -> unit
(** Delay delivery of every signal to the target by [c] virtual cycles
    (sim) or the backend's cycle-scaled wall time (native).  [0] clears
    the delay. *)

val sleep : int -> unit
(** Advance the calling thread's clock by [n] cycles {e and} pace it in
    real time on the native backend (sim: identical to [advance]).
    Monitors and chaos drivers use this to poll without busy-spinning;
    unlike [advance] it is also a safepoint. *)

val is_crashed : tid -> bool
val is_stalled : tid -> bool
val clock_of : tid -> int
val set_wait_note : string option -> unit
val note : string -> unit
val critical : (unit -> 'a) -> 'a
