external now_ns : unit -> (int[@untagged]) = "tsperf_now_ns_byte" "tsperf_now_ns" [@@noalloc]
external thread_cpu_ns : unit -> (int[@untagged])
  = "tsperf_thread_cpu_ns_byte" "tsperf_thread_cpu_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
