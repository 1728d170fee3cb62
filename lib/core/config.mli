(** ThreadScan tuning parameters. *)

type t = {
  max_threads : int;
      (** Upper bound on simulated thread ids that may participate. *)
  buffer_size : int;
      (** Per-thread delete-buffer capacity.  The paper uses 1024 pointers
          per thread (4096 in the tuned oversubscribed hash-table run); the
          scaled-down simulation defaults to 64 so reclamation phases happen
          within short horizons. *)
  ack_budget : int;
      (** Virtual cycles the reclaimer waits for scanner acknowledgments
          before declaring the phase blind and marking non-ackers suspect
          (see [docs/FAULTS.md]).  [<= 0] waits forever (the paper's
          original, wedge-prone behaviour). *)
  suspect_phases : int;
      (** Consecutive silent phases after which a suspect is reaped:
          force-deregistered, its delete buffer adopted, its last-known
          stack and registers proxy-scanned by the reclaimer from then on. *)
  takeover_steps : int;
      (** Scheduler steps a waiter tolerates the phase lock being held with
          no heartbeat movement before it declares the reclaimer dead and
          takes the phase over (the watchdog model: the stale holder is
          killed first, stale state is fenced by the phase generation).
          [<= 0] disables takeover. *)
  overflow_after : int;
      (** Full-buffer wait rounds (exponential backoff each) a retiring
          thread endures before parking the pointer on the shared overflow
          list — the hard backpressure bound while reclamation is degraded.
          [<= 0] waits forever. *)
}

val default : t
(** [max_threads = 64], [buffer_size = 64], and robustness defaults
    generous enough that healthy runs never trigger them:
    [ack_budget = 5_000_000] cycles, [suspect_phases = 3],
    [takeover_steps = 1_000_000], [overflow_after = 64]. *)

val validate : t -> unit
(** @raise Invalid_argument on nonsensical values. *)
