(** Chaos driver: fires a {!Ts_util.Fault_plan} into a running workload
    and accounts for the recovery.

    Two halves, mirroring who is able to deliver each clause:

    - {!worker_hook} runs inside each worker's operation loop and fires
      the {e self-inflicted} clauses — cycle-triggered ([V\@K]) crash,
      stall, drop-signals and delay-signals on workers [0..V-1], landing
      inside an [op_begin] bracket, which is the worst case for
      epoch-style schemes (a crashed victim never reaches [op_end]).
    - {!monitor} is the body of one extra logical thread that fires the
      clauses a victim cannot deliver to itself — wall-clock ([V\@Kms])
      triggers and [release] clauses — and samples recovery metrics
      (outstanding memory vs. the pre-fault baseline, degradation-ladder
      activity, signal storms) on every tick.

    All time accounting is in nanoseconds on the native backend and in
    virtual cycles on the sim (the monitor's own clock). *)

type report = {
  plan : Ts_util.Fault_plan.t;
  clauses_fired : int;
  fault_at : int;  (** first clause fire time; -1 = plan never fired *)
  baseline_outstanding : int;  (** retired - freed just before the fault *)
  peak_outstanding : int;  (** worst retired - freed seen after the fault *)
  takeover_after : int;
      (** first degradation-ladder activity (reap / takeover / proxy-scan
          / recovery) after the fault, relative to [fault_at]; -1 = the
          ladder never fired (non-ThreadScan schemes, or no need) *)
  recover_after : int;
      (** outstanding memory first back at (or below) the baseline after
          having exceeded it, relative to [fault_at]; -1 = never — the
          scheme wedged (or the run ended first) *)
  storm_signals : int;
      (** scheme signals sent between the fault and recovery (or run end)
          — the cost of recovering *)
}

type t

val create :
  plan:Ts_util.Fault_plan.t ->
  native:bool ->
  threads:int ->
  recovery_extras:string list ->
  t
(** A fresh driver for one run.  [native] selects the wall clock;
    [threads] bounds victim indices.  [recovery_extras] names the
    scheme's extras counters whose sum is its recovery ladder (from the
    scheme registry): movement past the pre-fault baseline counts as the
    takeover, an empty list means takeover is never observed. *)

val arm : t -> start:int -> unit
(** Called once by the workload body when the measured interval begins;
    [start] is the body's virtual start time. *)

val worker_hook : t -> Ts_smr.Smr.t -> i:int -> unit
(** Fire any due self-inflicted clause for worker [i] (0-based).  Call
    between operations; cheap when nothing is due.  A crash clause does
    not return. *)

val monitor : t -> Ts_smr.Smr.t -> done_addr:int -> tick:int -> unit -> unit
(** Monitor thread body: loops until the word at [done_addr] is nonzero,
    sleeping [tick] virtual cycles between samples.  Spawn it via
    [Ts_rt.spawn] after the workers (so worker tids stay [1..threads]). *)

val report : t -> report
(** Snapshot the metrics; call after the run (or after a wedge). *)
