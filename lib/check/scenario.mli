(** One checked run: workload + schedule policy + detection layers.

    A scenario builds a deterministic simulator run (sanitized heap, strict
    memory, chosen scheduling policy), drives a concurrent integer-set
    workload over ThreadScan, and folds all three detection layers into one
    {!outcome}:

    - the {!Sanitize} hook attributes any memory fault to a thread and a
      reclamation phase;
    - the {!Oracle} invariants run after quiescence;
    - the {!Linearize} checker validates the recorded operation history.

    Everything is a pure function of the {!spec} — any failing outcome is
    reproducible from its spec alone, which is what {!replay_command}
    prints. *)

type ds_kind =
  | List_ds
  | Hash_ds
  | Skip_ds
  | Lazy_ds
      (** the lock-based lazy list — mainly interesting under [--race],
          where its unsynchronized traversals stress the happens-before
          model, and as the home of the [elide-lock] seeded bug *)
  | Churn
      (** not a set: each worker owns a published slot, grabs random slots'
          nodes and holds them in frames across dereferences while
          replacing and retiring its own — the paper's Lemma-1 access
          pattern.  Cross-thread holds make mark/carry-over load-bearing,
          so protocol injections surface as attributed UAF faults; no
          operation history is recorded. *)

type policy =
  | Timed  (** cost-model schedule, one interleaving per seed *)
  | Uniform  (** uniformly random walk over active threads *)
  | Pct of int  (** PCT priority scheduling with [d] change points *)

(** A deliberately seeded synchronization/lifecycle bug, used to validate
    the {!Ts_analyze} checkers (each must fire, with the right
    attribution).  Each bug implies the structure it lives in — see
    {!bug_ds}. *)
type bug =
  | Bug_elide_lock
      (** lazy list mutates without its per-node locks: unordered
          write-write pairs on [next]/[marked] words *)
  | Bug_retire_early
      (** Michael list retires a marked node before unlinking it:
          retire-before-unlink, then double-retire when a traversal
          unlinks and retires it again *)
  | Bug_skip_fence
      (** epoch scheme announces its odd epoch without the fence
          (TSO-honestly: the store is deferred to the next operation
          boundary), so a cleanup frees under a live traversal:
          free-vs-read race + sanitizer use-after-free *)

type spec = {
  ds : ds_kind;
  scheme : string;
      (** reclamation scheme under check, by canonical
          {!Ts_scheme.Registry} id.  Any registered scheme runs the full
          detection stack; the ThreadScan-only layers (protocol
          injections, phase attribution) engage
          exactly when the built scheme exposes a ThreadScan instance. *)
  threads : int;  (** worker threads (main is extra) *)
  ops : int;  (** operations per worker *)
  key_range : int;
  buffer_size : int;  (** ThreadScan per-thread delete buffer *)
  inject : Threadscan.inject;  (** deliberate bug, for checker validation *)
  fault : Ts_util.Fault_plan.t;
      (** injected environment fault the protocol must survive, within
          the subset {!check_fault} admits: the [V] lowest-indexed
          workers self-inject after [K] completed operations.  Unlike
          {!Threadscan.inject} (a deliberate {e protocol} bug that must
          produce a violation), a fault is a legal execution — crashed
          victims die mid-workload ([SIGKILL]-style, no cleanup, still
          registered with the SMR), stalled ones are descheduled for
          the clause's cycles and then finish their operations — so a
          faulted run is held to the same oracles as a clean one. *)
  policy : policy;
  seed : int;
  analyze : bool;
      (** run the {!Ts_analyze} happens-before + lifecycle checkers;
          their reports land first in [violations].  Note: the analyzer
          performs extra ops, so analyzed schedules differ from
          unanalyzed ones (both remain deterministic per seed). *)
  bug : bug option;  (** seed a deliberate bug (checker validation) *)
}

val default : spec
(** list over threadscan, 3 threads, 40 ops, keys 0..31, buffer 8, no
    injection, uniform policy, seed 0, no analysis, no seeded bug. *)

val ds_to_string : ds_kind -> string

val ds_of_string : string -> ds_kind option

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["timed"], ["uniform"], or ["pct:<d>"]. *)

val bug_to_string : bug -> string

val bug_of_string : string -> bug option
(** ["elide-lock"], ["retire-early"], or ["skip-fence"]. *)

val bug_ds : bug -> ds_kind
(** The structure a seeded bug lives in ([Bug_skip_fence] swaps the
    scheme, not the structure, and runs over the Michael list). *)

val inject_to_string : Threadscan.inject -> string

val inject_of_string : string -> Threadscan.inject option

val check_fault : Ts_util.Fault_plan.t -> (unit, string) result
(** The checker's subset of the fault-plan grammar: the empty plan, or
    one op-count-triggered clause whose event is a crash or a bounded
    stall.  [Error] names the clause outside it and says why. *)

val replay_command : spec -> string
(** The exact shell command that reproduces this run. *)

type outcome = {
  spec : spec;
  violations : Report.violation list;  (** empty = the run checked out *)
  events : int;  (** operations recorded in the history *)
  phases : int;  (** reclamation phases completed *)
  steps : int;  (** scheduler steps consumed *)
  lin_keys : int;  (** keys the linearizability checker examined *)
  skipped_segments : int;  (** over-wide segments skipped conservatively *)
}

val failed : outcome -> bool

val run : spec -> outcome
(** Deterministic: same spec, same outcome.

    @raise Invalid_argument when [spec.fault] is outside {!check_fault},
    or when the scheme's registry capabilities rule the spec out: a
    protocol injection on a scheme without the ThreadScan collect
    protocol, or a neutralizing scheme paired with a lock-based
    structure ([Lazy_ds], [Skip_ds]). *)
