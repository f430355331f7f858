// What the benchmark observes of its own process from outside the library:
// clocks, getrusage and /proc/self.

#pragma once

#include <pthread.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// CPU seconds used by the whole process so far, exited threads included.
double ProcessCpuSeconds();
/// CPU seconds used so far by `thread` (which must still be running).
double ThreadCpuSeconds(pthread_t thread);

/// Peak resident set (getrusage ru_maxrss), in MB (2^20 bytes).
double PeakRssMb();
/// Involuntary context switches of the process so far (ru_nivcsw).
int64_t InvoluntaryContextSwitches();
/// Current thread count (`Threads:` in /proc/self/status); 0 if unreadable.
int64_t ThreadCount();

/// Processors this process may run on, the figure `nproc` prints.
int64_t AvailableCpus();

}  // namespace perfbench
