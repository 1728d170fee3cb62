(* The metric catalogue.  BENCHMARK.json at the repository root lists
   the same names and units (a test keeps the two in step) and adds the
   regression bound of each end-to-end metric.

   Every workload reports every metric of its tier.  An end-to-end
   metric is defined for every workload (README.md says how); a
   per-layer metric of a layer the workload does not run reads 0. *)

type better = Higher | Lower
type t = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "throughput_ops_s" "ops/s" Higher;
    m "op_p50_us" "us" Lower;
    m "op_p99_us" "us" Lower;
    m "op_p999_us" "us" Lower;
    m "live_words_mean" "words" Lower;
    m "sim_ops_per_mcycle" "ops/Mcycle" Higher;
    m "wall_s" "s" Lower;
    m "setup_s" "s" Lower;
  ]

let per_layer =
  [
    m "ds.self_ns_per_op" "ns" Lower;
    m "heap.malloc_ns" "ns" Lower;
    m "heap.free_ns" "ns" Lower;
    m "heap.malloc_calls" "count" Lower;
    m "heap.free_calls" "count" Lower;
    m "heap.peak_live_words" "words" Lower;
    m "heap.magazine_hit_ratio" "ratio" Higher;
    m "retire.fast_ns" "ns" Lower;
    m "retire.calls" "count" Lower;
    m "retire.wait_ns" "ns" Lower;
    m "retire.full_waits" "count" Lower;
    m "collect.ns_per_phase" "ns" Lower;
    m "handshake.ns_per_phase" "ns" Lower;
    m "handshake.delivery_ns_p50" "ns" Lower;
    m "handshake.delivery_ns_p99" "ns" Lower;
    m "sweep.ns_per_phase" "ns" Lower;
    m "sweep.frees_per_phase" "count" Higher;
    m "phase.count" "count" Lower;
    m "phase.useful_ratio" "ratio" Higher;
    m "scan.ns" "ns" Lower;
    m "scan.calls" "count" Lower;
    m "scan.ns_per_word" "ns" Lower;
    m "ladder.ack_timeouts" "count" Lower;
    m "ladder.blind_carried" "count" Lower;
    m "ladder.reaps" "count" Lower;
    m "ladder.overflow_pushes" "count" Lower;
    m "ladder.takeovers" "count" Lower;
    m "ladder.gen_aborts" "count" Lower;
    m "garbage.peak_nodes" "count" Lower;
    m "loop.ns_per_op" "ns" Lower;
    m "worker.cpu_share" "ratio" Higher;
    m "trace.overhead_ratio" "ratio" Higher;
    m "sim.ns_per_step" "ns" Lower;
    m "sim.phase_cycles_mean" "cycles" Lower;
    m "sim.full_waits" "count" Lower;
    m "sim.signals" "count" Lower;
    m "check.schedule_ms_p50" "ms" Lower;
    m "check.schedule_ms_p99" "ms" Lower;
  ]

let better_to_string = function Higher -> "higher" | Lower -> "lower"
