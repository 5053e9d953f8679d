// keyed-parallel: an in-process grouped aggregation over Zipf-skewed keys,
// replicated by algebra::MakeKeyedParallel and driven by
// scheduler::ThreadScheduler at p = nproc - 1, with p = 1 (same Partition /
// Merge plumbing, one replica) as the single-threaded baseline. It is the
// only workload that reaches ThreadScheduler, Partition/Merge and
// ConcurrentBuffer; the served engine path bypasses all three.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "trace.h"
#include "util.h"
#include "workload.h"

#include "src/algebra/aggregate.h"
#include "src/algebra/parallel.h"
#include "src/common/random.h"
#include "src/core/graph.h"
#include "src/core/metrics.h"
#include "src/core/sink.h"
#include "src/core/source.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/scheduler.h"

namespace perfbench {
namespace {

using pipes::StreamElement;
using pipes::Timestamp;

struct Trade {
  std::int32_t key = 0;
  std::int32_t value = 0;

  friend bool operator==(const Trade&, const Trade&) = default;
};

struct KeyOf {
  std::int32_t operator()(const Trade& t) const { return t.key; }
};

/// A few mixing rounds per element, standing in for a non-trivial
/// per-event computation; without it the run measures the buffer
/// hand-off, not operator scaling.
struct MixValue {
  std::int64_t operator()(const Trade& t) const {
    std::uint64_t x = static_cast<std::uint64_t>(t.value) + 0x9e3779b97f4a7c15;
    for (int i = 0; i < 64; ++i) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
    }
    return static_cast<std::int64_t>(x & 0xffff);
  }
};

using GroupedSum = pipes::algebra::GroupedAggregate<
    Trade, pipes::algebra::SumAgg<std::int64_t>, KeyOf, MixValue>;
using Out = GroupedSum::Output;

constexpr std::size_t kKeys = 1024;
constexpr double kZipfTheta = 0.99;
/// Event-time validity of every input, in events.
constexpr Timestamp kValidity = 256;
/// Fixed-rate phase input rate; the drain capacity at p = 4 is several
/// times higher.
constexpr double kRatePerS = 200'000;
/// Rounds per pass; every metric pools all rounds.
constexpr int kRounds = 10;
constexpr int kStartsPerRound = 200;
constexpr std::size_t kBatch = 256;

/// Replays a start-ordered vector it does not own. With `due_ns` it is an
/// open-loop feed: element i becomes available at due_ns[i] and no
/// earlier, and the lateness of each hand-over is recorded.
class ReplaySource : public pipes::Source<Trade> {
 public:
  ReplaySource(const std::vector<StreamElement<Trade>>& rows,
               const std::vector<std::int64_t>* due_ns)
      : Source("replay"), rows_(rows), due_ns_(due_ns) {}

  bool is_active() const override { return true; }
  bool HasWork() const override {
    if (done_) return false;
    return next_ >= rows_.size() || due_ns_ == nullptr ||
           (*due_ns_)[next_] <= NowNs();
  }
  bool IsFinished() const override { return done_; }

  pipes::NodeDescriptor Describe() const override {
    pipes::NodeDescriptor d;
    d.kind = pipes::NodeDescriptor::Kind::kSource;
    d.op = "replay-source";
    return d;
  }

  std::size_t DoWork(std::size_t max_units) override {
    if (done_) return 0;
    if (next_ >= rows_.size()) {
      done_ = true;
      TransferDone();
      return 1;
    }
    std::size_t take = std::min(max_units, rows_.size() - next_);
    if (due_ns_ != nullptr) {
      const std::int64_t now = NowNs();
      std::size_t due = 0;
      while (due < take && (*due_ns_)[next_ + due] <= now) {
        late_ms_.push_back(
            static_cast<double>(now - (*due_ns_)[next_ + due]) / 1e6);
        ++due;
      }
      take = due;
    }
    if (take == 0) return 0;
    run_.clear();
    run_.AppendBatch(std::span<const StreamElement<Trade>>(
        rows_.data() + next_, take));
    next_ += take;
    TransferRun(std::move(run_));
    return take;
  }

  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  const std::vector<StreamElement<Trade>>& rows_;
  const std::vector<std::int64_t>* due_ns_;
  std::size_t next_ = 0;
  bool done_ = false;
  pipes::ColumnarRun<Trade> run_;
  std::vector<double> late_ms_;
};

/// One installed plan: source -> Partition -> p x GroupedSum -> Merge ->
/// sink, with the ThreadScheduler that will drive it.
struct Plan {
  pipes::QueryGraph graph;
  ReplaySource* source = nullptr;
  pipes::algebra::ParallelChain<Trade, Out> chain;
  std::vector<std::pair<StreamElement<Out>, std::int64_t>> received;
  std::unique_ptr<pipes::scheduler::ThreadScheduler> driver;
};

std::unique_ptr<Plan> Install(const std::vector<StreamElement<Trade>>& rows,
                              const std::vector<std::int64_t>* due_ns,
                              std::size_t partitions) {
  auto plan = std::make_unique<Plan>();
  plan->source = &plan->graph.Add<ReplaySource>(rows, due_ns);
  plan->chain = pipes::algebra::MakeKeyedParallel<GroupedSum>(
      plan->graph, partitions, KeyOf{}, KeyOf{}, MixValue{});
  Plan* raw = plan.get();
  auto& sink = plan->graph.Add<pipes::CallbackSink<Out>>(
      [raw](const StreamElement<Out>& e) {
        raw->received.emplace_back(e, NowNs());
      },
      "result-sink");
  plan->source->AddSubscriber(*plan->chain.input);
  plan->chain.output->AddSubscriber(sink.input());
  const int threads = static_cast<int>(partitions) + 1;
  plan->driver = std::make_unique<pipes::scheduler::ThreadScheduler>(
      plan->graph, threads,
      [] { return std::make_unique<pipes::scheduler::RoundRobinStrategy>(); },
      plan->chain.PinnedAssignment(plan->graph, threads), kBatch);
  return plan;
}

/// Samples every thread's CPU while a run is in flight; threads that exit
/// keep their last sample.
class ThreadCpuSampler {
 public:
  ThreadCpuSampler() : thread_([this] { Loop(); }) {}
  ~ThreadCpuSampler() { Stop(); }
  ThreadCpuSampler(const ThreadCpuSampler&) = delete;
  ThreadCpuSampler& operator=(const ThreadCpuSampler&) = delete;

  /// Busiest thread's CPU over the sampled interval, excluding `skip`.
  std::int64_t Stop(int skip = 0) {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    std::int64_t busiest = 0;
    for (const auto& [tid, cpu] : last_) {
      if (tid == skip) continue;
      auto first = first_.find(tid);
      busiest = std::max(busiest,
                         cpu - (first == first_.end() ? 0 : first->second));
    }
    return busiest;
  }

 private:
  void Loop() {
    first_ = ThreadCpuNs();
    while (!stop_.load()) {
      for (const auto& [tid, cpu] : ThreadCpuNs()) last_[tid] = cpu;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const auto& [tid, cpu] : ThreadCpuNs()) last_[tid] = cpu;
  }

  std::atomic<bool> stop_{false};
  std::map<int, std::int64_t> first_;
  std::map<int, std::int64_t> last_;
  std::thread thread_;
};

struct Inputs {
  std::vector<StreamElement<Trade>> fixed;
  std::vector<StreamElement<Trade>> drain;
};

std::vector<StreamElement<Trade>> MakeTrades(
    pipes::Random& rng, const pipes::ZipfDistribution& zipf, std::size_t n) {
  std::vector<StreamElement<Trade>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Trade t{static_cast<std::int32_t>(zipf.Sample(rng)),
                  static_cast<std::int32_t>(rng.NextBounded(1 << 30))};
    const auto ts = static_cast<Timestamp>(i);
    out.emplace_back(t, ts, ts + kValidity);
  }
  return out;
}

struct DrainRun {
  double seconds = 0;
  std::int64_t process_cpu_ns = 0;
  std::int64_t busiest_thread_ns = 0;
  std::vector<StreamElement<Out>> output;
  pipes::metadata::MetricsSnapshot snapshot;
  double snapshot_ms = 0;
};

/// Runs `rows` unpaced through a fresh plan. Only a traced drain samples
/// per-thread CPU: the sampler thread would preempt a spinning worker and
/// add its own CPU to the untraced, gated figures.
DrainRun Drain(const std::vector<StreamElement<Trade>>& rows,
               std::size_t partitions, SpanLane& lane, std::uint64_t id,
               bool traced) {
  std::unique_ptr<Plan> plan = Install(rows, nullptr, partitions);
  DrainRun r;
  std::optional<ThreadCpuSampler> sampler;
  if (traced) sampler.emplace();
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t t0 = NowNs();
  plan->driver->RunToCompletion();
  const std::int64_t t1 = NowNs();
  r.process_cpu_ns = ProcessCpuNs() - cpu0;
  if (sampler.has_value()) r.busiest_thread_ns = sampler->Stop(CurrentTid());
  lane.Add("scheduler.run_to_completion", id, 0, t0, t1);
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  const std::int64_t s0 = NowNs();
  r.snapshot = pipes::metadata::CaptureSnapshot(plan->graph);
  const std::int64_t s1 = NowNs();
  lane.Add("metadata.snapshot", id, id, s0, s1);
  r.snapshot_ms = static_cast<double>(s1 - s0) / 1e6;
  r.output.reserve(plan->received.size());
  for (auto& [e, unused] : plan->received) r.output.push_back(std::move(e));
  return r;
}

bool Before(const StreamElement<Out>& a, const StreamElement<Out>& b) {
  if (a.start() != b.start()) return a.start() < b.start();
  if (a.end() != b.end()) return a.end() < b.end();
  return a.payload < b.payload;
}

/// An output as a multiset: sorted by (start, end, payload).
std::vector<StreamElement<Out>> Sorted(std::vector<StreamElement<Out>> v) {
  std::sort(v.begin(), v.end(), Before);
  return v;
}

/// True when `got`, in any order, equals the sorted `want`.
bool SameOutput(const std::vector<StreamElement<Out>>& want,
                std::vector<StreamElement<Out>> got) {
  got = Sorted(std::move(got));
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].start() != got[i].start() || want[i].end() != got[i].end() ||
        want[i].payload != got[i].payload) {
      return false;
    }
  }
  return true;
}

/// The p = 1 outputs every round is checked against, sorted: `fixed` from
/// an unmeasured run over the fixed-rate inputs, `drain` from the first
/// measured p = 1 drain.
struct Expected {
  std::vector<StreamElement<Out>> fixed;
  std::vector<StreamElement<Out>> drain;
};

/// Everything one pass measured, pooled over its rounds.
struct KeyedPass {
  bool correct = true;
  std::string error;
  /// Records the first mismatch with a p = 1 reference.
  void Check(bool same, const std::string& what) {
    if (same || !correct) return;
    correct = false;
    error = what + " differs from the p = 1 output";
  }
  /// Per round: plan starts (install, run, join) and result latencies.
  std::vector<std::vector<double>> start_ms;
  std::vector<std::vector<double>> latency_ms;
  /// CPU seconds of each plan start, all threads (see served.cc's
  /// RoundData::setup_s).
  std::vector<double> start_cpu_s;
  std::vector<double> late_ms;
  /// Per round: drain rates at p = n and p = 1, and CPU per event at
  /// p = n. Reported as totals over the rounds (see PooledRate), like
  /// espbench-serve's.
  std::vector<double> events_per_s;
  std::vector<double> p1_events_per_s;
  std::vector<double> cpu_us_per_event;
  std::vector<double> thread_share;
  double partition_skew = 0;
  double snapshot_ms = 0;
  double aggregate_busy_ms = 0;
  std::uint64_t aggregate_elements_in = 0;
  double peak_rss_mb = 0;
  std::uint64_t rows = 0;
  std::uint64_t operations = 0;
  SpanLane lane{false};
};

/// Plan start, closed loop: install the replicated plan on an empty input,
/// run it to completion (spawning and joining every worker). The
/// in-process counterpart of a REGISTER, and the workload's set-up.
void MeasureStarts(std::size_t partitions, KeyedPass& p) {
  static const std::vector<StreamElement<Trade>> kEmpty;
  for (int k = 0; k < kStartsPerRound; ++k) {
    const std::int64_t cpu0 = ProcessCpuNs();
    const std::int64_t t0 = NowNs();
    std::unique_ptr<Plan> plan = Install(kEmpty, nullptr, partitions);
    plan->driver->RunToCompletion();
    const std::int64_t t1 = NowNs();
    p.start_cpu_s.push_back(static_cast<double>(ProcessCpuNs() - cpu0) /
                            1e9);
    p.lane.Add("plan.start", p.operations + 1, 0, t0, t1);
    p.start_ms.back().push_back(static_cast<double>(t1 - t0) / 1e6);
    ++p.operations;
  }
}

/// Open loop at kRatePerS through the replicated plan; every result row is
/// charged to its input by AttributeRow's rule, and the rows must equal
/// the p = 1 output over the same inputs.
void FixedRate(const Inputs& in, std::size_t partitions,
               const Expected& expected, int round, KeyedPass& p) {
  // The peak is that of the first open-loop phase: a drain's unbounded
  // ConcurrentBuffer backlog would make it a measure of scheduling luck,
  // and later rounds hold the first drain's output for the comparison.
  const bool first = p.peak_rss_mb == 0;
  if (first) ResetPeakRss();
  std::vector<std::int64_t> due(in.fixed.size());
  std::unique_ptr<Plan> plan = Install(in.fixed, &due, partitions);
  const std::int64_t t0 = NowNs() + 2'000'000;
  const double period_ns = 1e9 / kRatePerS;
  for (std::size_t i = 0; i < due.size(); ++i) {
    due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) *
                                            period_ns);
  }
  plan->driver->RunToCompletion();
  if (first) p.peak_rss_mb = PeakRssMb();
  ++p.operations;
  const std::vector<double>& late = plan->source->late_ms();
  p.late_ms.insert(p.late_ms.end(), late.begin(), late.end());
  std::vector<StreamElement<Out>> output;
  output.reserve(plan->received.size());
  for (const auto& [e, receipt] : plan->received) {
    output.push_back(e);
    // Inputs sit at timestamps 0, 1, 2, ...: the newest one at or before
    // the row's start (AttributeRow) is the start itself.
    const auto idx = static_cast<std::size_t>(std::min<Timestamp>(
        e.start(), static_cast<Timestamp>(due.size()) - 1));
    p.latency_ms.back().push_back(static_cast<double>(receipt - due[idx]) /
                                  1e6);
  }
  p.Check(SameOutput(expected.fixed, std::move(output)),
          "round " + std::to_string(round) + " fixed-rate output");
}

/// Every round's outputs, fixed-rate and drain, at p = n and p = 1, are
/// compared with `expected`; the first drain at p = 1 sets its `drain`.
KeyedPass RunPass(const Inputs& in, std::size_t partitions, bool traced,
                  Expected& expected) {
  KeyedPass p;
  p.lane = SpanLane(traced);
  pipes::obs::SetMetricsEnabled(traced);
  for (int round = 0; round < kRounds; ++round) {
    p.start_ms.emplace_back();
    p.latency_ms.emplace_back();
    MeasureStarts(partitions, p);
    FixedRate(in, partitions, expected, round, p);
    const auto id = static_cast<std::uint64_t>(2 * round + 1);
    DrainRun r = Drain(in.drain, partitions, p.lane, id, traced);
    DrainRun b = Drain(in.drain, 1, p.lane, id + 1, traced);
    p.operations += 2;
    const auto drained = static_cast<double>(in.drain.size());
    p.events_per_s.push_back(drained / r.seconds);
    p.p1_events_per_s.push_back(drained / b.seconds);
    p.cpu_us_per_event.push_back(static_cast<double>(r.process_cpu_ns) /
                                 1e3 / drained);
    p.thread_share.push_back(static_cast<double>(r.busiest_thread_ns) /
                             1e9 / r.seconds);
    if (round == 0) {
      p.snapshot_ms = r.snapshot_ms;
      for (const auto& n : r.snapshot.nodes) {
        if (!n.partition_out.empty()) p.partition_skew = n.PartitionSkew();
        if (n.name.find("group-aggregate") != std::string::npos) {
          p.aggregate_elements_in += n.elements_in;
          p.aggregate_busy_ms += static_cast<double>(n.service.sum_ns) *
                                 pipes::obs::kLatencySamplePeriod / 1e6;
        }
      }
    }
    const std::string label = "round " + std::to_string(round) + " drain";
    if (expected.drain.empty()) {
      expected.drain = Sorted(std::move(b.output));
      p.Check(!expected.drain.empty(), label + " (empty)");
    } else {
      p.Check(SameOutput(expected.drain, std::move(b.output)),
              label + " at p = 1");
    }
    p.rows = r.output.size();
    p.Check(SameOutput(expected.drain, std::move(r.output)),
            label + " at p = " + std::to_string(partitions));
  }
  pipes::obs::SetMetricsEnabled(false);
  return p;
}

/// Drained events over drain time, pooled over rounds that each drain the
/// same events: the harmonic mean of the per-round rates.
double PooledRate(const std::vector<double>& rates) {
  double inverse = 0;
  for (const double r : rates) inverse += 1 / r;
  return static_cast<double>(rates.size()) / inverse;
}

/// CPU over drained events, pooled the same way: the mean per round.
double PooledCpu(const std::vector<double>& us_per_event) {
  double sum = 0;
  for (const double us : us_per_event) sum += us;
  return sum / static_cast<double>(us_per_event.size());
}

/// Median over rounds of each round's `q`-percentile (see Latencies in
/// served.cc for why rounds vote).
double RoundPercentile(const std::vector<std::vector<double>>& rounds,
                       double q) {
  std::vector<double> per_round;
  for (const std::vector<double>& r : rounds) {
    per_round.push_back(Percentile(r, q));
  }
  return Median(std::move(per_round));
}

std::vector<double> Pooled(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> all;
  for (const std::vector<double>& r : rounds) {
    all.insert(all.end(), r.begin(), r.end());
  }
  return all;
}

}  // namespace

PassResult RunKeyedParallel(const RunOptions& options, bool traced) {
  // p replicas run on p + 1 ThreadScheduler workers (worker 0 drives the
  // source, the split and the merge), so p = nproc - 1 fills the host
  // without oversubscribing it; workers spin while idle.
  const std::size_t partitions =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  pipes::Random rng(options.seed);
  const pipes::ZipfDistribution zipf(kKeys, kZipfTheta);
  Inputs in;
  auto scaled = [&](double n) {
    return std::max<std::size_t>(
        1024, static_cast<std::size_t>(n * options.scale));
  };
  in.fixed = MakeTrades(
      rng, zipf, scaled(kRatePerS * options.seconds * 0.4 / kRounds));
  // About a quarter of the pass at ~2.5M events/s.
  in.drain = MakeTrades(
      rng, zipf, scaled(2'500'000 * options.seconds * 0.25 / kRounds));

  // The fixed-rate reference, unmeasured, before the first peak-RSS
  // phase: it is held through every pass.
  Expected expected;
  SpanLane unrecorded(false);
  expected.fixed =
      Sorted(Drain(in.fixed, 1, unrecorded, 0, /*traced=*/false).output);

  PassResult result;
  std::vector<KeyedPass> passes;
  passes.push_back(RunPass(in, partitions, false, expected));
  if (traced) passes.push_back(RunPass(in, partitions, true, expected));
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const KeyedPass& p = passes[i];
    const Summary lat = Summarize(Pooled(p.latency_ms));
    const Summary starts = Summarize(Pooled(p.start_ms));
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s: p=%zu drain %.0f events/s, p=1 %.0f events/s | latency p50 "
        "%.3f ms p99 %.3f ms (n=%zu) | plan start p50 %.3f ms p99 %.3f ms "
        "(n=%zu) | cpu %.3f us/event | drain output rows %llu %s",
        i == 0 ? "untraced" : "traced", partitions, PooledRate(p.events_per_s),
        PooledRate(p.p1_events_per_s), lat.p50, lat.p99, lat.count,
        starts.p50, starts.p99, starts.count, PooledCpu(p.cpu_us_per_event),
        static_cast<unsigned long long>(p.rows),
        p.correct ? "(every output equals the p=1 output)" : p.error.c_str());
    result.notes.push_back(line);
    std::string per_round = "  per round, p=n drain events/s and cpu us/event:";
    for (std::size_t k = 0; k < p.events_per_s.size(); ++k) {
      std::snprintf(line, sizeof(line), " %.0f/%.3f", p.events_per_s[k],
                    p.cpu_us_per_event[k]);
      per_round += line;
    }
    result.notes.push_back(per_round);
    if (!p.correct) result.correct = false;
    result.attempted += p.operations;
  }
  const KeyedPass& p = passes[0];
  result.end_to_end = {
      Metric("drain_events_per_s", PooledRate(p.events_per_s), "1/s"),
      Metric("cpu_us_per_event", PooledCpu(p.cpu_us_per_event), "us"),
      Metric("peak_rss_mb", p.peak_rss_mb, "MiB"),
      Metric("setup_s", Median(p.start_cpu_s), "s")};
  if (!traced) return result;

  // The untraced pass's latencies (see Latencies in served.cc). Layers
  // of the served path that this in-process workload never calls read 0.
  std::map<std::string, double> layers;
  layers["latency_p50_ms"] = RoundPercentile(p.latency_ms, 0.50);
  layers["latency_p99_ms"] = RoundPercentile(p.latency_ms, 0.99);
  layers["register_p50_ms"] = RoundPercentile(p.start_ms, 0.50);
  layers["register_p99_ms"] = RoundPercentile(p.start_ms, 0.99);
  const KeyedPass& t = passes[1];
  const Summary late = Summarize(t.late_ms);
  const Summary start = Summarize(SpanDurationsUs({&t.lane}, "plan.start"));
  layers["server.register_rtt_p50_us"] = start.p50;
  layers["server.register_rtt_p99_us"] = start.p99;
  layers["gen.late_p99_ms"] = late.p99;
  layers["gen.late_max_ms"] = late.max;
  layers["algebra.aggregate.busy_ms"] = t.aggregate_busy_ms;
  layers["algebra.aggregate.elements_in"] =
      static_cast<double>(t.aggregate_elements_in);
  layers["scheduler.max_thread_cpu_share"] = Median(t.thread_share);
  layers["metadata.snapshot_rtt_ms"] = t.snapshot_ms;
  layers["parallel.p1_events_per_s"] = PooledRate(t.p1_events_per_s);
  layers["parallel.speedup"] =
      PooledRate(t.events_per_s) / PooledRate(t.p1_events_per_s);
  layers["core.partition_skew"] = t.partition_skew;
  layers["trace.overhead_pct"] =
      100 * (1 - PooledRate(t.events_per_s) / PooledRate(p.events_per_s));
  result.per_layer = PerLayerMetrics(layers);
  if (!options.span_path.empty()) {
    const bool written = WriteSpans(options.span_path, {&t.lane});
    result.notes.push_back((written ? "spans written to "
                                    : "could not write ") +
                           options.span_path);
  }
  return result;
}

}  // namespace perfbench
