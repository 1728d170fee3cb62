(** One fault-plan grammar for every CLI (tscheck, tstrace, tsbench).

    A plan is a comma-separated list of clauses:

    {v
    crash:V@K            crash the V lowest-indexed victims at K
    stall:V@K:C          stall them for C cycles at K
    stall:V@K:forever    stall them until an explicit release
    release:V@K          wake stalled victims at K
    drop-signals:V@K:N   drop the victims' next N incoming signals at K
    delay-signals:V@K:C  delay every signal to the victims by C cycles at K
    none                 the empty plan
    v}

    The trigger point [K] is a plain count whose unit belongs to the
    caller: completed operations in the checker ([tscheck --fault]),
    virtual cycles in the workload harness.  A [K] with an [ms] suffix
    ([crash:1\@250ms]) triggers on wall-clock milliseconds instead — only
    the native backend can honour those; the simulator has no wall clock.

    The printer round-trips: [to_string] of a parsed plan reparses to the
    same plan, and prints a canonical clause ([crash:V\@K],
    [stall:V\@K:C]) byte-for-byte as written, so replay commands can
    carry a plan verbatim.

    Tools differ only in which plans they accept: the checker takes the
    subset [Ts_check.Scenario.check_fault] admits, tstrace and the
    simulator harness refuse wall-clock triggers and plans that
    {!parks_forever}, and the native harness takes every plan. *)

type stall_dur = Bounded of int  (** cycles *) | Forever

type event =
  | Crash
  | Stall of stall_dur
  | Unstall  (** release stalled victims ([release:V\@K]) *)
  | Drop_signals of int
  | Delay_signals of int

type trigger =
  | At of int  (** op-count or virtual cycles — the caller's unit *)
  | At_ms of int  (** wall-clock milliseconds; native backend only *)

type clause = { victims : int; at : trigger; event : event }

type t = clause list
(** The empty list is the empty plan ("none"). *)

val parse : string -> (t, string) result
(** Parse a plan. [Error msg] carries a one-line diagnosis naming the
    offending clause. Victim counts must be positive, trigger points
    non-negative, stall/delay cycle counts and drop counts positive. *)

val clause_to_string : clause -> string

val to_string : t -> string
(** Inverse of {!parse}; the empty plan prints as ["none"]. *)

val grammar : string
(** One-line grammar summary for [--help] texts and parse errors. *)

val has_wall_triggers : t -> bool
(** Any [At_ms] clause present (the plan needs a wall clock)? *)

val parks_forever : t -> bool
(** Some clause stalls its victims forever and no [release] clause
    wakes them: the plan parks a victim for good, so a run under it
    ends only by a watchdog. *)

val inflict : int -> event -> unit
(** [inflict tid event] delivers [event] to thread [tid] through
    {!Ts_rt}: the one place a plan event becomes a runtime call.  A
    thread that crashes itself does not return. *)
