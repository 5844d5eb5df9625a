/* A nanosecond monotonic clock for the benchmark's own timers, and CPU
   pinning for its processes. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

CAMLprim value perfbench_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

/* Pin the calling process (and the children it forks later) to the
   first CPU it may run on; false, and no change, on failure. */
CAMLprim value perfbench_pin_first_cpu(value unit)
{
  cpu_set_t set;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_false;
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
  }
  return Val_false;
}
