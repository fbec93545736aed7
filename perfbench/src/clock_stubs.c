/* Monotonic nanosecond clock for the benchmark's timers and spans.  The
   unboxed entry point allocates nothing, so timing a call does not change
   the allocation it measures. */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_unboxed(unit));
}
