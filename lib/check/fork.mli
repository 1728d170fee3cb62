(** Forked schedule-tree exploration: prefix sharing via process snapshots.

    Replay-from-seed re-executes every shared prefix once per schedule.
    This explorer runs one trunk schedule per seed and, at scheduling
    decision points, snapshots the entire simulator — live fibers
    included — by forking the process: each child forces one alternative
    thread at the fork point, then falls back to the configured policy,
    exploring a distinct schedule while inheriting the trunk's prefix
    without re-executing it.  Each trunk runs twice — a scout pass
    records its exact decision points, a fork pass replays the identical
    schedule and forks leaves at the deepest recorded points, where the
    shared prefix per leaf is maximal.  Siblings at a point are pruned
    when their forced first step commutes (footprint-independent, see
    {!Ts_sim.Runtime.conflicts}) with every explored sibling's.

    Exploration is sequential and deterministic: statistics are a pure
    function of the spec family and {!options}.

    Replay-from-seed stays the oracle: in differential mode every trunk
    samples leaves (choice log + trace digest) and replays them from the
    seed via {!Ts_sim.Runtime.preload_choices}, demanding byte-identical
    traces and identical outcome counters.  See docs/CHECKING.md,
    "Forked exploration". *)

type options = {
  fork_factor : int;  (** max alternatives forked per decision point *)
  stride : int;  (** min step spacing between chosen fork points (0 = 1) *)
  window : float;  (** fraction of the trunk below which no fork is placed *)
  prune : bool;  (** sleep-set pruning of commuting alternatives *)
  differential : int;  (** leaves per trunk replayed from seed and compared (0 = off) *)
  step_budget : int;  (** stop forking once this many fresh steps ran (0 = unlimited) *)
}

val default_options : options
(** factor 3, stride 1, window 0.5, pruning on, differential off,
    no step budget. *)

type stats = {
  trunks : int;  (** seed-family trunk schedules run *)
  explored : int;  (** schedules run to completion (trunks + forked) *)
  pruned : int;  (** forked schedules abandoned by sleep-set pruning *)
  forks : int;  (** process snapshots taken *)
  shared_steps : int;  (** prefix steps inherited instead of re-executed *)
  fresh_steps : int;  (** steps actually executed (including scout and fork passes) *)
  replay_steps : int;  (** steps replay-from-seed would spend on the same schedules *)
  events : int;
  phases : int;
  lin_keys : int;
  skipped_segments : int;
  failed : int;  (** schedules with violations *)
  failures : (Scenario.outcome * int array) list;
      (** failing outcome + its recorded choice log (capped), replayable
          via {!Ts_sim.Runtime.preload_choices} *)
  errors : int;  (** forked children that died without reporting *)
  diff_checked : int;  (** leaves replayed from seed by the differential oracle *)
  diff_mismatches : int;  (** leaves whose replay diverged (must be 0) *)
  diff_steps : int;  (** replay steps the oracle spent (kept out of [fresh_steps]) *)
}

val speedup : stats -> float
(** [replay_steps / fresh_steps] — how many times over a replay-from-seed
    sweep of the same schedules would have re-executed shared work. *)

val explore : ?opts:options -> schedules:int -> Scenario.spec -> stats
(** Explore [schedules] schedules of one spec's tree: the spec's own
    trunk plus leaves forked at its deepest decision points.
    @raise Invalid_argument on the options {!sweep} rejects. *)

val sweep :
  ?progress:(int -> unit) ->
  ?opts:options ->
  base:Scenario.spec ->
  schedules:int ->
  seed0:int ->
  pct_depth:int ->
  unit ->
  stats
(** Forked counterpart of {!Explore.sweep} over the standard seed
    family: a few trunks (even seeds {!Scenario.Uniform}, odd seeds
    {!Scenario.Pct}[ pct_depth]) split the [schedules] budget and each
    explores its slice by forking.  [progress] receives the cumulative
    explored count after every trunk.  @raise Invalid_argument if
    [opts.fork_factor < 1] or [opts.window] is outside [\[0, 1)]. *)
