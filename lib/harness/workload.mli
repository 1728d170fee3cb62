(** Benchmark workload runner — the §6 methodology.

    A run prefills a structure to [init_size], starts [threads] workers that
    each execute random operations ([update_ratio] split evenly between
    inserts and removes, the rest lookups over [key_range]) until their
    virtual clock passes [horizon] cycles, then joins, flushes the
    reclamation scheme, and reports totals.  Throughput is operations per
    million virtual cycles, the simulator's analogue of the paper's
    ops/second. *)

(** Execution backend for a run.  [Backend_sim] is the deterministic
    effect-based simulator (one OS thread, virtual clock).  [Backend_native]
    runs the identical workload closure on real OCaml 5 domains through
    {!Ts_par.Runtime}; [pool] bounds the domain count (0 = one domain per
    logical thread, capped at the recommended domain count). *)
type backend = Backend_sim | Backend_native of { pool : int }

val backend_to_string : backend -> string

type ds_kind = List_ds | Hash_ds | Skip_ds

val ds_kind_to_string : ds_kind -> string

type spec = {
  ds : ds_kind;
  scheme : Ts_scheme.Registry.spec;
      (** which reclamation scheme, by registry id — see
          {!Ts_scheme.Registry.all} for the field and
          {!Ts_scheme.Registry.spec} to construct one *)
  threads : int;
  cores : int;  (** 0 = one core per thread *)
  quantum : int;
  update_ratio : float;
  init_size : int;
  key_range : int;
  horizon : int;  (** virtual cycles each worker runs *)
  padding : int;  (** extra node words (false-sharing padding) *)
  buckets : int;  (** hash table only *)
  max_height : int;  (** skip list only *)
  epoch_batch : int;
  stack_depth : int;
      (** words of baseline call-chain stack each worker occupies (scanned
          by TS-Scan on every signal, like a real thread's used stack) *)
  chaos : Ts_util.Fault_plan.t;
      (** fault plan ({!Chaos}): cycle-triggered clauses are
          self-inflicted by the victims inside an operation bracket,
          wall-clock triggers and releases are fired by a dedicated
          monitor thread that also samples recovery metrics into
          [result.chaos].  Under a plan, ThreadScan runs with
          horizon-scaled degradation budgets so the ladder can fire.
          [[]] (the default) adds no monitor and leaves sim schedules
          untouched. *)
  watchdog_ms : int;
      (** native backend only: arm {!Ts_par.Runtime}'s liveness watchdog
          so a wedged run (e.g. epoch under stall-forever) is killed and
          reported instead of hanging.  [0] disables. *)
  seed : int;
  backend : backend;
  smr_wrap : (Ts_smr.Smr.t -> Ts_smr.Smr.t) option;
      (** instrument the scheme before the workload uses it (e.g.
          {!Ts_analyze.Analyze.wrap_smr}); [None] in {!default_spec} *)
}

val default_spec : spec

type result = {
  spec : spec;
  ops : int;  (** completed operations, all workers *)
  throughput : float;  (** ops per million cycles *)
  elapsed : int;  (** virtual end time of the whole run *)
  retired : int;
  freed : int;
  outstanding : int;  (** retired - freed after flush *)
  peak_live_blocks : int;
  peak_live_words : int;
  signals_delivered : int;
  ctx_switches : int;
  faults : int;  (** memory faults (must be 0) *)
  extras : (string * int) list;  (** scheme-specific statistics *)
  wedged : bool;  (** the native liveness watchdog had to kill the run *)
  post_mortem : string option;  (** thread states at watchdog fire time *)
  chaos : Chaos.report option;  (** recovery metrics, when [spec.chaos] ran *)
}

val run : spec -> result
(** Executes the workload on [spec.backend] — a fresh simulator, or a fresh
    domain pool for [Backend_native].  @raise Failure if the run produced
    memory faults or a thread died (a victim of [spec.chaos] is not a
    death in this sense — crashed victims are expected).
    @raise Invalid_argument when the scheme's registry capabilities rule
    the spec out: a wedging chaos plan (a crash clause, or one that
    {!Ts_util.Fault_plan.parks_forever}) on a [wedges_under_stall]
    scheme without a native watchdog to bound it, or a neutralizing
    scheme paired with a lock-based structure.  Also when a chaos plan
    uses wall-clock triggers on the sim backend, or parks a victim
    forever on the sim at all (virtual time would never end the
    run). *)
