// pipes_perfbench: the served end-to-end benchmark (see README.md here).
//
//   pipes_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <file>]
//   pipes_perfbench --self-check [--seconds <s>]
//
// The last line of a run is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics of the traced pass (--trace 1). Exit codes: 0 for a
// correct run, 1 for a failed one, 2 for bad arguments, 77 when a plain
// socket probe finds loopback TCP refused before espbench-serve starts
// (printed as SKIP, with no metrics).

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "util.h"
#include "workload.h"

namespace {

using perfbench::PassResult;
using perfbench::RunOptions;

constexpr int kSkipExit = 77;

int Usage() {
  std::fprintf(stderr,
               "usage: pipes_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n"
               "       pipes_perfbench --self-check [--seconds <s>]\n");
  return 2;
}

PassResult Run(const std::string& workload, const RunOptions& options,
               bool traced) {
  if (workload == "keyed-parallel") {
    return perfbench::RunKeyedParallel(options, traced);
  }
  return perfbench::RunEspbenchServe(options, traced);
}

void PrintNotes(const std::string& workload, const PassResult& r) {
  for (const std::string& note : r.notes) {
    std::printf("[%s] %s\n", workload.c_str(), note.c_str());
  }
}

/// Reduced inputs, the oracle on, every workload, plus the self-tests.
int SelfCheck(RunOptions options) {
  std::printf("self-tests:\n");
  int failures = perfbench::RunSelfTests();
  options.scale = 0.05;
  for (const std::string& w : perfbench::WorkloadNames()) {
    const PassResult r = Run(w, options, /*traced=*/true);
    PrintNotes(w, r);
    const bool ok = r.skipped || (r.correct && r.failed == 0 &&
                                  !r.end_to_end.empty() &&
                                  !r.per_layer.empty());
    std::printf("%s %s (%llu operations, %llu failed)\n",
                ok ? (r.skipped ? "SKIP" : "PASS") : "FAIL", w.c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    if (!ok) ++failures;
  }
  std::printf("self-check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"espbench-serve",
                                                  "keyed-parallel"};
  return kNames;
}

const std::vector<LayerMetric>& PerLayerNames() {
  static const std::vector<LayerMetric> kNames = {
      {"latency_p50_ms", "ms"},
      {"register_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"register_p99_ms", "ms"},
      {"server.fetch_rtt_p50_us", "us"},
      {"server.fetch_rtt_p99_us", "us"},
      {"server.rows_per_fetch", "count"},
      {"server.result_bytes_per_s", "B/s"},
      {"server.fetch_useful_ratio", "ratio"},
      {"server.register_rtt_p50_us", "us"},
      {"server.register_rtt_p99_us", "us"},
      {"server.cancel_rtt_p99_us", "us"},
      {"server.snapshot_rtt_p50_us", "us"},
      {"cql.compile_p50_us", "us"},
      {"optimizer.reuse_ratio", "ratio"},
      {"optimizer.operators_per_register", "count"},
      {"engine.push_p50_us", "us"},
      {"engine.push_p99_us", "us"},
      {"engine.push_busy_s", "s"},
      {"gen.late_p99_ms", "ms"},
      {"gen.late_max_ms", "ms"},
      {"gen.cpu_share", "ratio"},
      {"algebra.filter.busy_ms", "ms"},
      {"algebra.filter.elements_in", "count"},
      {"algebra.window.busy_ms", "ms"},
      {"algebra.window.elements_in", "count"},
      {"algebra.aggregate.busy_ms", "ms"},
      {"algebra.aggregate.elements_in", "count"},
      {"algebra.join.busy_ms", "ms"},
      {"algebra.join.elements_in", "count"},
      {"algebra.result_sink.busy_ms", "ms"},
      {"algebra.result_sink.elements_in", "count"},
      {"sweeparea.state_bytes_peak", "B"},
      {"scheduler.watermark_lag_max_ms", "ms"},
      {"scheduler.max_thread_cpu_share", "ratio"},
      {"metadata.snapshot_rtt_ms", "ms"},
      {"parallel.p1_events_per_s", "1/s"},
      {"parallel.speedup", "ratio"},
      {"core.partition_skew", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

std::vector<Metric> PerLayerMetrics(
    const std::map<std::string, double>& values) {
  std::set<std::string> listed;
  std::vector<Metric> out;
  for (const LayerMetric& m : PerLayerNames()) {
    listed.insert(m.name);
    auto it = values.find(m.name);
    out.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  for (const auto& [name, unused] : values) {
    if (listed.count(name) == 0) {
      std::fprintf(stderr, "per-layer metric %s is not listed\n",
                   name.c_str());
      std::abort();
    }
  }
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  int trace = -1;
  bool self_check = false;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      seeded = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans" && has_value) {
      options.span_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 60)) return Usage();
  if (self_check) return SelfCheck(options);
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known |= w == workload;
  }
  if (!known || !seeded || (trace != 0 && trace != 1)) return Usage();

  const PassResult r = Run(workload, options, trace == 1);
  PrintNotes(workload, r);
  if (r.skipped) {
    std::printf("SKIP %s: loopback TCP is refused here; no served metrics\n",
                workload.c_str());
    return kSkipExit;
  }
  const bool correct = r.correct && r.failed == 0;
  std::printf("%s\n",
              perfbench::ResultLine(correct, r.attempted, r.failed,
                                    trace == 1 ? r.per_layer : r.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
