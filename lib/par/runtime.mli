(** Native execution backend: real OCaml 5 domains.

    Logical threads keep the simulator's numbering (spawn order, main =
    tid 0) but execute as systhreads pinned round-robin onto a pool of
    domains.  {!run} installs the backend's {!Ts_rt.ops} record, executes
    [main] as tid 0, drains stragglers, and restores the previously
    installed backend.  See docs/BACKENDS.md for the sim/native parity
    table. *)

type tid = int

exception Par_error of string
exception Thread_failure of tid * exn

type config = {
  cost : Ts_rt.Cost_model.t;
  pool : int;  (** domains in the pool; [<= 0] = [Domain.recommended_domain_count ()] *)
  seed : int;  (** per-thread rng streams derive from it *)
  stack_words : int;
  reg_words : int;
  mem_capacity : int;  (** words; fixed at creation (the native heap cannot grow) *)
  strict_mem : bool;
  max_threads : int;
  propagate_failures : bool;
  stall_ns_per_cycle : float;
      (** wall-time value of one virtual cycle: scales [Ts_rt.stall]
          durations, [Ts_rt.sleep], and [Ts_rt.delay_signals] windows.
          Default 100ns. *)
  watchdog_ns : int;
      (** liveness watchdog: if the run is still going after this much
          wall time, snapshot a post-mortem of every thread's state, kill
          all unfinished threads (parked stall victims included), and
          return with [result.wedged] set instead of hanging.  [0]
          (default) disables. *)
}

val default_config : config

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
  stalls : int;  (** parks taken via [Ts_rt.stall] *)
  signals_dropped : int;  (** signals lost to [Ts_rt.drop_signals] windows *)
}

type result = {
  elapsed : int;  (** max per-thread virtual clock, cost-model cycles *)
  wall_ns : int;  (** real elapsed time *)
  run_stats : stats;
  failures : (tid * exn) list;
  crashed : tid list;
  thread_count : int;
  heap : Heap.t;  (** for post-run fault/leak assertions *)
  wedged : bool;  (** the liveness watchdog had to kill the run *)
  post_mortem : string option;
      (** thread-by-thread state snapshot taken when the watchdog fired *)
}

val run : ?config:config -> (unit -> unit) -> result
(** Run [main] as logical thread 0 on a fresh heap and domain pool.
    Raises [Thread_failure] for the first failed thread when
    [config.propagate_failures] is set.  Raises [Failure] if called while
    another backend's run is active (see {!Ts_rt.install}). *)
