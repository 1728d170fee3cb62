/* Monotonic and per-thread CPU clocks in nanoseconds, as untagged ints so
   the OCaml side reads them without allocating on the hot path. */

#include <time.h>
#include <caml/mlvalues.h>

static intnat read_clock(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat tsperf_now_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_MONOTONIC);
}

value tsperf_now_ns_byte(value unit) { return Val_long(tsperf_now_ns(unit)); }

intnat tsperf_thread_cpu_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_THREAD_CPUTIME_ID);
}

value tsperf_thread_cpu_ns_byte(value unit) { return Val_long(tsperf_thread_cpu_ns(unit)); }
