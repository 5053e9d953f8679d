#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Clocks, percentiles, CPU/RSS probes and the result line of the served
// end-to-end benchmark. Nothing here knows about a workload.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// Sleeps until `deadline_ns` on the NowNs() clock; returns at once when
/// the deadline has passed. Never spins.
void SleepUntilNs(std::int64_t deadline_ns);

/// A timing series summarized the way every metric of this benchmark is
/// reported: median, p99 and max by nearest rank, plus the sample count.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
  double sum = 0;
};

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it. `q` in (0, 1]. 0 for an empty series.
double Percentile(std::vector<double> values, double q);

Summary Summarize(std::vector<double> values);

/// Median of a small series (setup repetitions, drain repetitions).
double Median(std::vector<double> values);

/// CPU time of the whole process, all threads, including exited ones.
std::int64_t ProcessCpuNs();

/// Kernel thread id of the calling thread.
int CurrentTid();

/// On-CPU nanoseconds per live thread of this process, from
/// /proc/self/task/<tid>/schedstat.
std::map<int, std::int64_t> ThreadCpuNs();

/// Peak resident set size of the process (VmHWM) in MiB.
double PeakRssMb();

/// Restarts the VmHWM peak from the current resident set.
void ResetPeakRss();

/// "" when a TCP socket can listen on 127.0.0.1 and another can connect
/// to it; otherwise the refused step and its error. A plain socket probe,
/// independent of the PIPES server, so a server failure is never taken for
/// a host without loopback.
std::string LoopbackProbe();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
