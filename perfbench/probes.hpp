// Measurement helpers for the end-to-end benchmark. Everything here observes
// the program from outside: the benchmark's own steady clock around public
// calls, getrusage / thread CPU clocks, /proc/self, and the obs events a
// retaining TraceSink collected during a traced round.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process user and system CPU seconds (all threads).
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes process_cpu();

/// CPU seconds consumed by the calling thread.
double thread_cpu_s();

/// Peak resident set (VmHWM) of this process in MiB.
double vm_hwm_mb();

/// Peaks of /proc/self figures, sampled between the generator's waits. A
/// sample costs a /proc read, so sample() rate-limits itself.
class ProcSampler {
 public:
  void sample();
  void sample_now();

  std::int64_t threads_peak = 0;
  double vm_peak_mb = 0;
  std::int64_t fds_peak = 0;

 private:
  Clock::time_point last_{};
};

/// Layer figures derived from one traced round's event stream.
struct TraceFigures {
  std::vector<double> queue_ms;  ///< manager task_state ready -> dispatched
  std::int64_t sched_scanned = 0;
  std::int64_t sched_dispatched = 0;
  std::vector<double> xfer_ms;  ///< transfer_begin -> transfer_end (ok only)
  double peer_bytes = 0;        ///< ok transfers served by a peer worker
  double peer_busy_s = 0;       ///< summed durations of those transfers
  std::int64_t cache_inserts = 0;
  std::int64_t cache_evicts = 0;
};

/// Fold one round's retained events into `out` (accumulates).
void add_trace(const std::vector<vine::obs::Event>& events, TraceFigures& out);

}  // namespace perfbench
