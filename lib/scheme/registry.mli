(** First-class registry of reclamation schemes.

    One descriptor per scheme — canonical id, CLI aliases, capability
    flags, chaos profile, and a constructor — registered in exactly one
    place.  Everything that dispatches on "which scheme is this"
    ({!Ts_harness.Workload}, the chaos oracle, [tsbench], [tscheck],
    [tstrace], the backend conformance tests) goes through this table, so
    adding a scheme is one entry here and zero hand-maintained matches
    elsewhere.  Capability flags replace per-call-site scheme-name
    matches: the wedge guard for crash and stall-forever plans reads
    {!caps.wedges_under_stall}, the chaos oracle reads
    {!descriptor.chaos}, and the recovery ladder counts the extras named
    in {!descriptor.recovery_extras}. *)

type caps = {
  wedges_under_stall : bool;
      (** a thread crashed or parked inside an operation starves
          reclamation forever (quiescence waiters): fault plans with a
          crash or an unreleased stall need a watchdog; every other
          scheme survives a mid-operation crash with at most a bounded
          leak *)
  protect_slots : bool;  (** dereferences require [protect ~slot] *)
  ts_protocol : bool;
      (** runs the ThreadScan collect protocol: [built.ts] is set, and
          the checker's protocol-bug injections apply *)
  neutralizes : bool;
      (** aborts victims' operations via signals; restricts the scheme
          to restartable (lock-free) data structures *)
  pins_frames : bool;
      (** a private reference held in a stack {!Ts_rt.Frame} pins the
          node by itself (TS-Scan / StackTrack frame scanning, or leaky):
          cross-operation holds are safe without protect slots or
          [op_begin] brackets.  Workloads that hold nodes across
          operations (the checker's churn pattern) dispatch on this. *)
  reclaims : bool;  (** actually frees memory (leaky does not) *)
}

(** How the scheme is expected to behave under the chaos harness.

    {ul
    {- [Self_healing] — crashes and unreleased stalls both recover: the
       degradation ladder (or neutralizing protocol) moves and
       outstanding memory returns to baseline.}
    {- [Crash_healing] — crashes recover (proxy work on behalf of the
       corpse), but a stalled reader legitimately pins memory until it
       resumes; only the no-wedge half is asserted for stalls.}
    {- [Quiescence_bound] — a crashed or parked thread starves
       reclamation forever: the run is expected to wedge (watchdog) and
       leak durably.}
    {- [Unchecked] — no recovery machinery to assert either way.}} *)
type chaos_profile = Self_healing | Crash_healing | Quiescence_bound | Unchecked

(** Per-scheme tuning accepted by {!build}.  Irrelevant fields are
    ignored by schemes that do not use them. *)
type params = {
  buffer : int option;  (** ThreadScan per-thread buffer (default 64) *)
  delay : int option;  (** slow-epoch: straggler delay in steps *)
  patience : int option;  (** patient-epoch: bounded quiescence wait *)
  batch : int option;  (** epoch family / debra / hyaline batch *)
}

(** A scheme selection: canonical id plus tuning.  This is what lives in
    [Workload.spec] and what the CLIs parse. *)
type spec = { id : string; params : params }

(** ThreadScan degradation-ladder budgets.  [None] in {!env} keeps the
    (deliberately generous) defaults; harnesses that inject faults pass
    budgets scaled to their horizon so the ladder fires within it. *)
type budgets = {
  ack_budget : int;
  suspect_phases : int;
  takeover_steps : int;
  overflow_after : int;
}

val fault_budgets : horizon:int -> budgets
(** The standard fault-scaled ladder budgets:
    [ack_budget = max 10_000 (horizon/20)], [suspect_phases = 2],
    [takeover_steps = max 20_000 (horizon/10)], [overflow_after = 32]. *)

(** Everything a constructor needs from the harness. *)
type env = {
  max_threads : int;
  hazard_slots : int;  (** per-thread protection slots (ds-dependent) *)
  epoch_batch : int;  (** default batch when [params.batch] is [None] *)
  budgets : budgets option;
}

type built = {
  smr : Ts_smr.Smr.t;
  ts : Threadscan.t option;
      (** the underlying ThreadScan instance, for harnesses that poke
          phase counters or inject protocol bugs; [None] otherwise *)
}

type descriptor = {
  id : string;  (** canonical, stable: what JSON and tables print *)
  aliases : string list;
  summary : string;
  caps : caps;
  chaos : chaos_profile;
  recovery_extras : string list;
      (** extras-counter names whose sum is the scheme's recovery
          ladder: movement past the pre-fault baseline = a takeover *)
  tunables : string list;
      (** which {!params} keys this scheme reads (by their
          {!params_assoc} name); {!spec} silently drops the rest, so a
          CLI can pass every flag's value for every scheme *)
  crash_leak_per_victim : params -> int;
      (** checker budget: nodes one crashed thread may strand forever *)
  build : env -> params -> built;
}

val all : descriptor list
(** Every registered scheme, in display order. *)

val find : string -> descriptor option
(** Look up by canonical id or alias. *)

val get : string -> descriptor
(** Like {!find}.  @raise Invalid_argument on unknown names, listing
    the valid ones. *)

val descriptor : spec -> descriptor
(** The descriptor behind a spec.  @raise Invalid_argument likewise. *)

val canonical : string -> (string, string) result
(** Resolve a name or alias to the canonical id; the error carries a
    human-readable list of valid names (for CLI converters). *)

val names : unit -> string list
val names_doc : unit -> string
(** All ids (and, for [names_doc], their aliases) as one list / one
    comma-separated string for [--scheme] help text and error messages. *)

val spec :
  ?buffer:int ->
  ?delay:int ->
  ?patience:int ->
  ?batch:int ->
  string ->
  spec
(** Smart constructor; resolves aliases.  @raise Invalid_argument on
    unknown names. *)

val label : spec -> string
(** The stable canonical id — the one name used in JSON, tables and CLI
    alike (no parameter suffixes; see {!params_assoc}). *)

val params_assoc : spec -> (string * int) list
(** The tuning parameters that are actually set, as a flat assoc for
    JSON emission. *)

val describe : spec -> string
(** [label] plus any set parameters, for verbose human output. *)

val build : env -> spec -> built
(** Construct the scheme.  Must run inside the runtime (schemes allocate
    shared words).  @raise Invalid_argument on unknown ids. *)
