(** ThreadScan: automatic and scalable memory reclamation (SPAA 2015).

    The library implements the paper's protocol on the simulated
    multiprocessor:

    - {b retire} ({!Ts_smr.Smr.t.retire}): the caller pushes the unlinked
      node's pointer into its private single-reader/single-writer
      {!Delete_buffer}.  When the buffer is full, the caller becomes the
      reclaimer (serialised by a lock) and runs a {b collect} phase.
    - {b collect}: aggregate every thread's delete buffer (plus the marked
      carry-over of the previous phase) into the {!Master_buffer}, sort it,
      bump the phase id, signal every other registered thread, run TS-Scan
      locally, wait for all acknowledgments, then free every unmarked entry
      and carry the marked ones over.
    - {b TS-Scan} (the signal handler): walk the thread's shadow stack, the
      interrupted register context, and any registered heap blocks
      word-by-word; mask the low-order tag bits of each word; binary-search
      the master buffer; mark hits; acknowledge.

    Beyond [retire], every hook is free: ThreadScan is automatic — the data
    structure neither announces pointers (hazard pointers) nor brackets its
    operations (epochs).

    The §4.3 extension ({!add_heap_block}/{!remove_heap_block}) registers
    per-thread heap blocks holding private references so TS-Scan covers
    them. *)

module Config = Config
module Delete_buffer = Delete_buffer
module Master_buffer = Master_buffer

type t

val create : ?config:Config.t -> unit -> t
(** Builds a ThreadScan instance (allocates its buffers; must run inside
    the simulator). *)

val smr : t -> Ts_smr.Smr.t
(** The scheme-neutral interface data structures consume.  [thread_init]
    installs the TS-Scan signal handler and registers the thread;
    [thread_exit] deregisters it (a dead thread is never waited for). *)

val config : t -> Config.t

(** {1 §4.3 extension: heap blocks with private references} *)

val add_heap_block : start_addr:int -> len:int -> unit
(** Declare a heap block holding private references of the calling thread;
    TS-Scan will include it in the scan. *)

val remove_heap_block : start_addr:int -> len:int -> unit

(** {1 Introspection (tests, benchmarks)} *)

val phases : t -> int
(** Completed collect phases. *)

val signals_sent : t -> int

val carried_last : t -> int
(** Entries carried over (still referenced) after the last phase. *)

val scan_words : t -> int
(** Total words examined by all TS-Scans.  Added once per scanned range,
    not per word: the field is shared by every scanner.  Exact on the
    simulator; on native, concurrent scanners can lose an update. *)

val full_waits : t -> int
(** Times a thread found its buffer full while another reclaimer was
    active and had to wait (usually to discover its buffer drained). *)

val outstanding : t -> int
(** Nodes retired but not yet freed: {!Ts_smr.Smr.outstanding} of {!smr}. *)

(** {1 Degradation metrics (fault tolerance, see [docs/FAULTS.md])}

    The protocol degrades gracefully when threads crash or stall mid-phase:
    a bounded ack wait turns a wedged phase into a {e blind} one (carry
    everything, free nothing), non-ackers become {e suspects} whose stacks
    the reclaimer proxy-scans, persistent suspects are {e reaped}
    (force-deregistered, buffers adopted), a dead reclaimer's phase lock is
    taken over behind a generation fence, and retiring threads fall back to
    a shared overflow list instead of blocking forever. *)

val ack_timeouts : t -> int
(** Phases whose ack wait exhausted [ack_budget] and went blind. *)

val carried_blind : t -> int
(** Master-buffer entries carried over because their phase was blind. *)

val suspected_total : t -> int
(** Threads ever marked suspect (cumulative). *)

val recoveries : t -> int
(** Suspects cleared because they acked again. *)

val reaps : t -> int
(** Suspects force-deregistered (crashed, or silent for
    [suspect_phases] phases). *)

val adopted : t -> int
(** Buffered retirements adopted from reaped threads. *)

val proxy_scans : t -> int
(** Stacks/registers scanned by the reclaimer on a suspect's behalf. *)

val takeovers : t -> int
(** Phase locks wrested from a reclaimer whose heartbeat went stale. *)

val gen_aborts : t -> int
(** Sweeps aborted by the phase-generation fence (stale reclaimer). *)

val overflow_pushes : t -> int
(** Retirements parked on the overflow list by backpressure. *)

(** {1 Fault injection (checker validation only)}

    Deliberate protocol bugs, used to prove the concurrency checker in
    [lib/check] actually catches violations.  Production code must leave
    this at {!No_fault}. *)

type inject =
  | No_fault
  | Skip_carryover
      (** The sweep frees {e every} master-buffer entry, marked or not —
          still-referenced nodes are reclaimed, a use-after-free. *)
  | Skip_ack_wait
      (** The reclaimer sweeps without waiting for scanner acks — nodes a
          scanner was about to mark get freed under it. *)
  | Skip_proxy_scan
      (** Suspects are suspected and reaped but never proxy-scanned — a
          stalled thread's held node is freed under it, proving the proxy
          scan is load-bearing for the degradation ladder. *)
  | Crash_mid_phase
      (** The next reclaimer kills itself right after signaling (once):
        the phase lock is orphaned mid-phase, exercising heartbeat
        takeover and the generation fence. *)
  | Stall_mid_phase
      (** Like {!Crash_mid_phase} but the reclaimer stalls forever
        instead of dying: the phase lock is held by a frozen thread, so
        workers must heartbeat-takeover, and a later [Ts_rt.unstall]
        resumes the victim into a generation-fence abort. *)

val set_inject : t -> inject -> unit

val inject : t -> inject
