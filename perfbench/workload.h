#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What every workload of the benchmark hands back to main(): the verdict,
// the operation counts and the metrics of one pass, by name and unit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// The measured length of one pass; each workload splits it between a
  /// fixed-rate phase and a drain phase of fixed size.
  double seconds = 8;
  /// Shrinks every input (self-check mode); 1 = the measured size.
  double scale = 1;
  /// Where the traced pass writes its spans ("" = nowhere).
  std::string span_path;
};

struct PassResult {
  bool correct = true;
  /// Set when a plain socket probe finds loopback TCP refused before the
  /// first round; no metric is valid then. A failure of the server itself
  /// is a failed run, never a skip.
  bool skipped = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Each runs its workload once untraced, or (traced) once untraced and
/// once traced, reporting the per-layer metrics of the traced pass and the
/// tracing overhead between the two.
PassResult RunEspbenchServe(const RunOptions& options, bool traced);
PassResult RunKeyedParallel(const RunOptions& options, bool traced);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// One per-layer metric of BENCHMARK.json.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every traced run prints, in BENCHMARK.json order.
const std::vector<LayerMetric>& PerLayerNames();

/// Every PerLayerNames() metric, valued from `values`, or 0 where the
/// workload's path does not reach that layer. A name in `values` that the
/// list lacks aborts the run: it would never be printed.
std::vector<Metric> PerLayerMetrics(
    const std::map<std::string, double>& values);

/// Benchmark self-tests (attribution rule, percentiles, row parsing);
/// returns the number of failures and prints one line per check.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
