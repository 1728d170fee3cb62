(** The paper's evaluation, experiment by experiment (see DESIGN.md §4).

    Each figure runner sweeps thread counts over a set of scheme series and
    prints a throughput table plus the headline shape checks the paper's
    prose states (ThreadScan ≈ Leaky, ≈2× over hazard pointers, Slow Epoch
    collapse, oversubscription overhead).

    Three scales: [Quick] (seconds, shapes only), [Full] (minutes, paper
    thread counts), [Paper] (paper structure sizes and buffer sizes as
    well).  Scale only changes magnitudes — the series and workloads are
    identical. *)

type scale = Quick | Full | Paper

val scale_of_string : string -> scale option

type point = { threads : int; cells : (string * Workload.result) list }

val fig3 : backend:Workload.backend -> scale -> Workload.ds_kind -> point list
(** Figure 3: throughput vs threads, one core per thread; series Leaky,
    Hazard Pointers, Epoch, Slow Epoch, ThreadScan (plus StackTrack on the
    list-based structures). *)

val fig4 : backend:Workload.backend -> scale -> Workload.ds_kind -> point list
(** Figure 4: oversubscription — threads beyond the simulated cores;
    series Leaky, Epoch, ThreadScan (and the tuned large-buffer ThreadScan
    on the hash table, as in the paper). *)

val fig5 : backend:Workload.backend -> scale -> point list
(** Figure 5 regime: the hash table under heavy retire traffic; series
    Leaky, Epoch, DEBRA+, Hyaline and ThreadScan. *)

val ablate_buffer : backend:Workload.backend -> scale -> point list
(** §6 buffer tuning: oversubscribed hash table, ThreadScan delete-buffer
    size sweep. *)

val ablate_slow_epoch : backend:Workload.backend -> scale -> point list
(** §6 Slow Epoch sensitivity: errant-delay sweep on the list. *)

val ablate_padding : backend:Workload.backend -> scale -> point list
(** Design note: effect of the paper's 172-byte node padding on the list. *)

val ablate_structures : backend:Workload.backend -> scale -> point list
(** Library breadth: every structure in [ts_ds] under ThreadScan. *)

val chaos_recovery : backend:Workload.backend -> scale -> point list
(** Native-only crash/stall degradation ablation with recovery-time
    accounting: one victim is crashed, stalled for half a horizon, or
    stalled forever at a quarter of the run, under leaky / epoch /
    hazard / debra / hyaline / threadscan.  Each cell carries a
    {!Chaos.report} (wall-clock takeover and MTTR, signal storm) and the
    liveness watchdog bounds the rows where epoch — or, under
    stall-forever, every run — wedges.  [point.threads] is reused as the
    plan row index.  @raise Invalid_argument on [Backend_sim]. *)

val print_points : title:string -> point list -> unit
(** Virtual-cycle throughput table.  Native wall-clock time is measured
    by tsperf ([bench/perf]), not here. *)

val sweep_violations : point list -> string list
(** The sweep oracle: one message per cell that ran without a [chaos]
    plan, under a scheme whose registry capabilities say it
    [reclaims], and still had [outstanding <> 0] after its flush. *)

val json_of_points :
  target:string -> backend:Workload.backend -> scale:scale -> point list -> string
(** The whole sweep as a JSON document (hand-emitted; no JSON dependency):
    target/backend/scale header plus one object per (threads, series) cell
    with ops, virtual throughput, the reclamation counters and the
    allocator's magazine counters.  A cell run under a chaos plan also
    carries its {!Chaos.report}; its times are suffixed [_ns] on the
    native backend and [_cycles] on the sim. *)

val write_json :
  target:string -> backend:Workload.backend -> scale:scale -> point list -> string
(** Writes {!json_of_points} to [BENCH_<target>.json] in the current
    directory and returns the file name. *)

val run_and_print :
  title:string ->
  ?backend:Workload.backend ->
  ?json:bool ->
  (backend:Workload.backend -> scale -> point list) ->
  scale ->
  string list
(** Runs the experiment on [backend] (default sim), prints the tables and
    the per-figure summaries, and with [~json:true] also writes
    [BENCH_<title>.json].  After the JSON is written, it checks the
    oracles — {!sweep_violations}, plus the recovery invariants for
    [chaos-recovery] — prints one [oracle violation:] line per failure
    and returns the failures (empty when every oracle held). *)

val names : (string * (backend:Workload.backend -> scale -> point list)) list
(** All experiments by bench-target name (fig3-list, …, fig5-hash,
    ablate-…). *)
