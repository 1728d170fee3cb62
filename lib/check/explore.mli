(** Schedule exploration: seed-family sweeps and failure shrinking.

    A sweep runs one scenario shape across a family of seeds, alternating
    the {!Scenario.Uniform} random walk with {!Scenario.Pct} priority
    schedules (which hit ordering bugs of bounded preemption depth with
    known probability).  Because every run is a pure function of its spec,
    a failure shrinks by plain greedy search — fewer threads, fewer ops,
    narrower key range, smaller seed — re-running the scenario at each
    step and keeping only reductions that still fail. *)

type summary = {
  runs : int;
  total_events : int;  (** operations recorded across all runs *)
  total_phases : int;  (** reclamation phases across all runs *)
  total_steps : int;  (** scheduler steps across all runs *)
  lin_keys : int;  (** per-key histories checked *)
  skipped_segments : int;  (** linearizability segments skipped as too wide *)
  failures : Scenario.outcome list;  (** failing outcomes, in sweep order *)
}

val sweep : ?progress:(int -> unit) -> Scenario.spec list -> summary
(** Run every spec; [progress] is called with the number of completed
    runs after each one. *)

val sweep_specs :
  base:Scenario.spec -> schedules:int -> seed0:int -> pct_depth:int -> Scenario.spec list
(** The standard seed family: [schedules] copies of [base] with seeds
    [seed0, seed0+1, ...], even indices under {!Scenario.Uniform} and odd
    ones under {!Scenario.Pct}[ pct_depth]. *)

val fails : Scenario.spec -> bool
(** Whether one run of [spec] produces any violation. *)

type shrink_stats = {
  candidates : int;  (** reduction candidates considered *)
  runs_executed : int;  (** scenarios actually run *)
  memo_hits : int;  (** candidates answered from the memo table *)
}

val shrink_memo : ?fails:(Scenario.spec -> bool) -> Scenario.spec -> Scenario.spec * shrink_stats
(** Greedily minimise a failing spec (threads, ops and key range to a
    fixpoint, then a bounded smallest-seed scan) while it keeps failing.
    Returns the spec unchanged if it does not fail.  Candidate verdicts
    are memoized, so no spec is run twice across passes.  [fails]
    defaults to {!fails}; tests inject synthetic predicates to exercise
    each reduction axis without a real failure.  Deterministic. *)

val shrink : Scenario.spec -> Scenario.spec
(** [shrink spec] is [fst (shrink_memo spec)]. *)
