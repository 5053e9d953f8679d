// The served workload, espbench-serve: one in-process engine::Engine
// behind a server::PipesServer on loopback, events pushed through the
// engine's StreamWriter (the protocol has no ingest frame yet), queries
// registered, cancelled and fetched and the graph snapshotted over TCP by
// server::Client. README.md in this directory explains the workload, the
// latency rule and every counter.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "rows.h"
#include "trace.h"
#include "util.h"
#include "workload.h"

#include "src/common/random.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/engine/engine.h"
#include "src/metadata/snapshot.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/testing/conformance.h"
#include "src/workloads/espbench.h"
#include "src/workloads/espbench_cql.h"

namespace perfbench {
namespace {

using pipes::kMaxTimestamp;
using pipes::Result;
using pipes::Status;
using pipes::Timestamp;
using pipes::engine::Engine;
using pipes::engine::StreamWriter;
using pipes::relational::Schema;
using pipes::server::Client;
using pipes::server::PipesServer;
using pipes::testing::conformance::Corpus;
using pipes::testing::conformance::CorpusStream;
using pipes::testing::conformance::IntervalTable;
using pipes::testing::conformance::TupleElement;

/// Rows one FETCH may return; a full reply means more are waiting.
constexpr std::uint32_t kMaxFetch = 65536;
/// Client back-off after a poll cycle in which no query had a row.
constexpr std::int64_t kEmptyCycleBackoffNs = 200'000;
/// Rounds per pass. Each round is a fresh deployment fed the same inputs;
/// the end-to-end metrics pool all rounds (see EndToEnd).
constexpr int kRounds = 10;
/// Set-ups per round; the last one is measured, all are timed.
constexpr int kSetupRepetitions = 10;
/// A round that has not drained by then is a failure, not a hang.
constexpr std::int64_t kPassTimeoutNs = 100'000'000'000;
/// Pause between the fixed-rate phase and the drain, so the drain's
/// unpaced flood does not queue ahead of the fixed-rate phase's last rows.
constexpr std::int64_t kSettleNs = 100'000'000;
/// Traced pass: in-process Engine::Snapshot() period.
constexpr std::int64_t kSamplePeriodNs = 250'000'000;
/// Whole-graph SNAPSHOT period over the wire, like pipes_top.
constexpr std::int64_t kWireSnapshotPeriodNs = 1'000'000'000;
/// Wire bytes of a kResults reply around its rows, and of each row around
/// its tuple text (docs/server.md): frame header + u32 count; two u64
/// timestamps + u32 string length.
constexpr std::uint64_t kResultsFrameBytes = 4 + 1 + 4;
constexpr std::uint64_t kRowWireBytes = 8 + 8 + 4;

/// Everything the workload feeds, registers and checks. The driving
/// stream's first `fixed_events` rows are paced at `rate_per_s`; the rest
/// form the drain phase and are pushed unpaced.
struct ServedSpec {
  std::string tenant;
  /// streams[0] is the driving stream; the others are dimension
  /// relations, pushed once every query is registered and then closed
  /// (rows pushed before a registration never reach that query). The
  /// oracle evaluates the queries over exactly these rows.
  Corpus corpus;
  std::size_t fixed_events = 0;
  double rate_per_s = 0;
  /// Resident queries: fetched throughout, checked against the reference
  /// evaluator, and cancelled when the round ends.
  std::vector<std::string> queries;
  /// Registered on a connection of its own in the middle of each fixed-rate
  /// phase and cancelled at once: graph mutation (compile, optimize, graft,
  /// teardown) beside the streaming queries. Its rows are not fetched.
  std::string churn_query;

  const CorpusStream& feed() const { return corpus.streams[0]; }
};

// --- Workload definition ----------------------------------------------------

std::size_t Scaled(double events, const RunOptions& options) {
  return std::max<std::size_t>(
      64, static_cast<std::size_t>(std::llround(events * options.scale)));
}

/// Fixed-rate phase of one round: the rounds' fixed-rate phases take 60%
/// of the pass.
std::size_t FixedEvents(double rate, const RunOptions& options) {
  return Scaled(rate * options.seconds * 0.6 / kRounds, options);
}

/// Drain phase of one round: the rounds' drain phases take about a quarter
/// of the pass at the workload's capacity `knee_per_s`.
std::size_t DrainEvents(double knee_per_s, const RunOptions& options) {
  return Scaled(knee_per_s * options.seconds * 0.25 / kRounds, options);
}

/// Production orders generated per minute of event time, 30 per minute as
/// in ESPBench's default scenario: the join returns as many rows per event
/// as one draw over the whole run would, with less spread between seeds.
std::vector<TupleElement> OrderRows(
    const pipes::workloads::EspbenchOptions& esp) {
  constexpr Timestamp kBlockMs = 60'000;
  std::vector<pipes::workloads::ProductionOrder> orders;
  for (Timestamp offset = 0; offset < esp.duration_ms; offset += kBlockMs) {
    pipes::workloads::EspbenchOptions block = esp;
    block.seed = esp.seed * 1000003 + static_cast<std::uint64_t>(offset);
    block.duration_ms = kBlockMs;
    for (pipes::workloads::ProductionOrder o :
         pipes::workloads::GenerateOrders(block)) {
      o.id = static_cast<std::int64_t>(orders.size());
      o.start += offset;
      o.due += offset;
      orders.push_back(o);
    }
  }
  return pipes::workloads::EspbenchOrderRows(orders);
}

ServedSpec EspbenchServe(const RunOptions& options) {
  ServedSpec spec;
  spec.tenant = "espbench";
  spec.rate_per_s = 100'000;
  spec.fixed_events = FixedEvents(spec.rate_per_s, options);
  const std::size_t total = spec.fixed_events + DrainEvents(250'000, options);

  pipes::workloads::EspbenchOptions esp;
  esp.seed = options.seed;
  // Gaps are exponential with mean 2 ms, rounded and at least 1 ms, so
  // about 2.3 ms apart: 2.6 ms per event is enough for `total` events.
  esp.duration_ms = static_cast<Timestamp>(total) * 13 / 5 + 1000;
  // One overload episode per 10 s of event time gives the threshold and
  // over-capacity queries rows to return.
  pipes::Random rng(options.seed ^ 0x5eedULL);
  for (Timestamp t = 5000; t + 1000 < esp.duration_ms; t += 10'000) {
    esp.overloads.push_back(
        {t, t + 1000,
         static_cast<std::int64_t>(rng.NextBounded(
             static_cast<std::uint64_t>(esp.num_machines))),
         2.0});
  }
  std::vector<TupleElement> events = pipes::workloads::EspbenchEventRows(esp);
  PIPES_CHECK_MSG(events.size() >= total, "ESPBench generator ran short");
  events.resize(total);
  spec.corpus.streams.push_back({"events",
                                 pipes::workloads::EspbenchEventSchema(),
                                 std::move(events), 1000.0});
  spec.corpus.streams.push_back(
      {"machines", pipes::workloads::EspbenchMachineSchema(),
       pipes::workloads::EspbenchMachineRows(
           pipes::workloads::GenerateMachines(esp)),
       1000.0});
  spec.corpus.streams.push_back({"orders",
                                 pipes::workloads::EspbenchOrderSchema(),
                                 OrderRows(esp), 1000.0});
  for (const auto& q : pipes::workloads::EspbenchCqlCatalog()) {
    spec.queries.push_back(q.text);
  }
  spec.churn_query =
      "SELECT machine, MAX(power) AS peak FROM events "
      "[RANGE 2000 MILLISECONDS SLIDE 1000 MILLISECONDS] GROUP BY machine";
  return spec;
}

// --- Deployment --------------------------------------------------------------

/// Counts attempts and non-OK results of
/// Connect/Register/Cancel/Fetch/Snapshot/Push.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

struct LiveQuery {
  std::uint64_t id = 0;
  Schema schema;
};

/// One set-up: engine, server, connections and registered queries.
/// Member order is teardown order in reverse: connections close first
/// (cancelling their tenants), then the server stops, then the engine
/// goes.
struct Deployment {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PipesServer> server;
  StreamWriter feed;
  std::optional<Client> client;  ///< The resident tenant's connection.
  std::optional<Client> churn;   ///< The churn query's connection.
  std::vector<LiveQuery> queries;
  std::uint64_t registrations = 0;
};

/// Timing of one REGISTER: `due_ns` is when it was due to be sent (the
/// send time in the closed-loop set-up, the schedule tick mid-phase).
struct RegisterTimer {
  std::vector<double>* latency_ms;
  SpanLane* lane;
  std::uint64_t* seq;
};

Result<Client::Registered> TimedRegister(Client& client,
                                         const std::string& text,
                                         std::int64_t due_ns, Ops& ops,
                                         const RegisterTimer& timer) {
  const std::int64_t t0 = NowNs();
  Result<Client::Registered> r = client.Register(text);
  const std::int64_t t1 = NowNs();
  ops.Count(r.ok());
  timer.latency_ms->push_back(static_cast<double>(t1 - due_ns) / 1e6);
  timer.lane->Add("server.register", ++*timer.seq, 0, t0, t1);
  return r;
}

/// Builds one deployment. Loopback was probed before the first round, so
/// any failure here, a refused connection included, is the program's.
Result<Deployment> SetUp(const ServedSpec& spec, Ops& ops,
                         const RegisterTimer& timer) {
  Deployment d;
  d.engine = std::make_unique<Engine>();
  std::vector<StreamWriter> writers;
  for (const CorpusStream& s : spec.corpus.streams) {
    PIPES_ASSIGN_OR_RETURN(StreamWriter w,
                           d.engine->AddStream(s.name, s.schema, s.rate_hint));
    writers.push_back(w);
  }
  d.feed = writers[0];
  d.server = std::make_unique<PipesServer>(*d.engine);
  PIPES_RETURN_IF_ERROR(d.server->Start());
  auto connect = [&](const std::string& tenant) -> Result<Client> {
    Result<Client> c = Client::Connect("127.0.0.1", d.server->port(), tenant);
    ops.Count(c.ok());
    return c;
  };
  PIPES_ASSIGN_OR_RETURN(Client resident, connect(spec.tenant));
  d.client.emplace(std::move(resident));
  PIPES_ASSIGN_OR_RETURN(Client churn, connect("churn"));
  d.churn.emplace(std::move(churn));
  for (const std::string& text : spec.queries) {
    PIPES_ASSIGN_OR_RETURN(Client::Registered r,
                           TimedRegister(*d.client, text, NowNs(), ops, timer));
    PIPES_ASSIGN_OR_RETURN(Schema schema, ParseSchema(r.schema));
    d.queries.push_back({r.query_id, std::move(schema)});
    ++d.registrations;
  }
  for (std::size_t i = 1; i < writers.size(); ++i) {
    for (const TupleElement& row : spec.corpus.streams[i].rows) {
      if (!ops.Count(writers[i].Push(row).ok())) {
        return Status::Internal("dimension push failed");
      }
    }
    PIPES_RETURN_IF_ERROR(writers[i].Close());
  }
  return d;
}

// --- One round ---------------------------------------------------------------

/// What the feeder thread leaves behind.
struct FeedLog {
  explicit FeedLog(bool traced) : lane(traced) {}
  std::vector<std::int64_t> due_ns;  ///< Per event; drain events: drain start.
  std::vector<double> late_ms;       ///< Fixed-rate events only.
  std::int64_t drain_start_ns = 0;
  std::int64_t process_cpu0 = 0;
  std::map<int, std::int64_t> threads_cpu0;
  std::int64_t own_cpu0 = 0;
  std::int64_t own_cpu1 = 0;
  /// VmHWM at the end of the fixed-rate phase, before the drain starts.
  double peak_rss_mb = 0;
  int tid = 0;
  bool closed_ok = true;
  Ops ops;
  SpanLane lane;
};

std::int64_t ThreadCpuSelfNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Open loop: sleeps until each fixed-rate event is due, never spins, and
/// pushes whatever is due after a late wake-up back to back. Then feeds
/// the drain events unpaced and closes the stream.
void Feed(const ServedSpec& spec, StreamWriter writer, std::int64_t t0,
          FeedLog& log, std::atomic<bool>& fixed_done,
          std::atomic<bool>& closed) {
  log.tid = CurrentTid();
  const std::vector<TupleElement>& rows = spec.feed().rows;
  const double period_ns = 1e9 / spec.rate_per_s;
  log.due_ns.resize(rows.size());
  log.late_ms.reserve(spec.fixed_events);
  // Returns when the push started.
  auto push = [&](std::size_t i) {
    const std::int64_t start = NowNs();
    log.ops.Count(writer.Push(rows[i]).ok());
    log.lane.Add("engine.push", i + 1, 0, start, NowNs());
    return start;
  };
  for (std::size_t i = 0; i < spec.fixed_events; ++i) {
    const std::int64_t due =
        t0 + std::llround(static_cast<double>(i) * period_ns);
    log.due_ns[i] = due;
    SleepUntilNs(due);
    const std::int64_t start = push(i);
    log.late_ms.push_back(static_cast<double>(start - due) / 1e6);
  }
  SleepUntilNs(NowNs() + kSettleNs);
  log.peak_rss_mb = PeakRssMb();
  fixed_done.store(true);
  log.process_cpu0 = ProcessCpuNs();
  log.threads_cpu0 = ThreadCpuNs();
  log.own_cpu0 = ThreadCpuSelfNs();
  log.drain_start_ns = NowNs();
  for (std::size_t i = spec.fixed_events; i < rows.size(); ++i) {
    log.due_ns[i] = log.drain_start_ns;
    push(i);
  }
  log.closed_ok = writer.Close().ok();
  log.own_cpu1 = ThreadCpuSelfNs();
  closed.store(true);
}

/// Rows of one resident query as received, with receipt times per FETCH.
struct Received {
  std::deque<Client::Row> rows;  ///< A deque: growing never copies rows.
  /// (rows.size() after the FETCH, receipt time) per non-empty FETCH.
  std::vector<std::pair<std::size_t, std::int64_t>> batches;
};

struct NodeClassTotals {
  double busy_ms = 0;
  std::uint64_t elements_in = 0;
};

/// Operator class of an engine node, by the names the physical planner
/// and the engine give them; "" for sources and other plumbing.
std::string NodeClass(const std::string& name) {
  // Filter names embed their predicate text, so they are matched first
  // and by prefix. A join's residual predicate is a filter too.
  if (name.rfind("filter[", 0) == 0 || name == "join-residual") {
    return "filter";
  }
  if (name.find("-results") != std::string::npos) return "result_sink";
  if (name.find("join") != std::string::npos) return "join";
  if (name.find("aggregate") != std::string::npos) return "aggregate";
  if (name.find("window") != std::string::npos) return "window";
  return "";
}

/// Everything one round measured, before it is turned into metrics.
struct RoundData {
  bool ok = true;
  std::string error;
  Ops ops;
  /// CPU seconds of each set-up, all threads: the work a set-up does,
  /// without the wake-up latency of its round trips.
  std::vector<double> setup_s;
  std::vector<double> register_ms;
  std::vector<Received> received;  ///< Per resident query.
  std::vector<Schema> schemas;     ///< Per resident query.
  std::vector<double> latency_ms;  ///< Fixed-rate rows.
  double early_p50_ms = 0;  ///< Rows of the first quarter of the phase.
  double late_p50_ms = 0;   ///< Rows of the last quarter.
  double drain_events_per_s = 0;
  double drained = 0;        ///< Events of the drain phase.
  double drain_s = 0;        ///< First drain push to last row received.
  double system_cpu_us = 0;  ///< Process CPU minus load generator, drain.
  double cpu_us_per_event = 0;
  double gen_cpu_share = 0;
  double max_thread_cpu_share = 0;
  double peak_rss_mb = 0;
  std::uint64_t fetches = 0;
  std::uint64_t useful_fetches = 0;
  std::uint64_t rows = 0;
  std::uint64_t result_bytes = 0;
  double phase_s = 0;
  std::size_t operators_created = 0;
  std::size_t operators_reused = 0;
  std::uint64_t registrations = 0;
  std::uint64_t state_bytes_peak = 0;
  double watermark_lag_max_ms = 0;
  std::map<std::string, NodeClassTotals> classes;
  SpanLane main_lane{false};
  FeedLog feed{false};
};

/// True when every resident query's result sink has seen end-of-stream.
bool AllSinksDone(const Engine& engine, const std::vector<LiveQuery>& qs) {
  const pipes::metadata::MetricsSnapshot snap = engine.Snapshot();
  for (const LiveQuery& q : qs) {
    const auto* node = snap.FindNode("q" + std::to_string(q.id) + "-results");
    if (node == nullptr || node->progress != kMaxTimestamp) return false;
  }
  return true;
}

RoundData RunRound(const ServedSpec& spec, bool traced) {
  RoundData p;
  p.main_lane = SpanLane(traced);
  p.feed = FeedLog(traced);
  pipes::obs::SetMetricsEnabled(traced);
  std::uint64_t seq = 0;  // Span ids of the main thread's requests.
  const RegisterTimer timer{&p.register_ms, &p.main_lane, &seq};
  auto timed_cancel = [&](Client& client, std::uint64_t id) {
    const std::int64_t c0 = NowNs();
    const bool ok = p.ops.Count(client.Cancel(id).ok());
    p.main_lane.Add("server.cancel", ++seq, 0, c0, NowNs());
    return ok;
  };

  std::optional<Deployment> d;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    d.reset();  // The previous set-up's teardown is not counted.
    const std::int64_t cpu0 = ProcessCpuNs();
    Result<Deployment> made = SetUp(spec, p.ops, timer);
    const std::int64_t cpu1 = ProcessCpuNs();
    if (!made.ok()) {
      p.ok = false;
      p.error = "set-up: " + made.status().ToString();
      return p;
    }
    d.emplace(std::move(made).value());
    p.setup_s.push_back(static_cast<double>(cpu1 - cpu0) / 1e9);
  }

  // Node ids of the resident queries, for per-layer metrics.
  std::set<std::uint64_t> query_nodes;
  for (const LiveQuery& q : d->queries) {
    auto snap = d->engine->QuerySnapshot(q.id);
    if (!snap.ok()) continue;
    for (const auto& n : snap->nodes) query_nodes.insert(n.id);
  }

  p.received.resize(d->queries.size());
  std::atomic<bool> fixed_done{false};
  std::atomic<bool> closed{false};
  const int main_tid = CurrentTid();
  const std::int64_t start_ns = NowNs() + 2'000'000;
  // The peak is that of the fixed-rate phase (the feeder reads it before
  // the drain): the drain's unbounded staging would make it a measure of
  // scheduling luck.
  ResetPeakRss();
  std::thread feeder(Feed, std::cref(spec), d->feed, start_ns,
                     std::ref(p.feed), std::ref(fixed_done),
                     std::ref(closed));

  std::int64_t last_row_ns = 0;
  // The churn pair is due halfway through the fixed-rate phase.
  const std::int64_t churn_due =
      start_ns + std::llround(static_cast<double>(spec.fixed_events) / 2 *
                              1e9 / spec.rate_per_s);
  bool churned = false;
  std::int64_t next_wire_snapshot = start_ns + kWireSnapshotPeriodNs / 4;
  std::int64_t next_sample = start_ns;
  bool check_done = false;
  while (true) {
    const bool done_before = check_done && AllSinksDone(*d->engine, d->queries);
    std::uint64_t cycle_rows = 0;
    for (std::size_t qi = 0; qi < d->queries.size(); ++qi) {
      const LiveQuery& q = d->queries[qi];
      Received& out = p.received[qi];
      std::size_t n = 0;
      do {
        const std::int64_t t0 = NowNs();
        Result<std::vector<Client::Row>> r = d->client->Fetch(q.id, kMaxFetch);
        const std::int64_t t1 = NowNs();
        if (!p.ops.Count(r.ok())) break;
        p.main_lane.Add("server.fetch", ++seq, 0, t0, t1);
        n = r->size();
        ++p.fetches;
        p.result_bytes += kResultsFrameBytes;
        if (n == 0) break;
        ++p.useful_fetches;
        for (Client::Row& row : *r) {
          p.result_bytes += kRowWireBytes + row.tuple.size();
          out.rows.push_back(std::move(row));
        }
        out.batches.emplace_back(out.rows.size(), t1);
        last_row_ns = t1;
        cycle_rows += n;
      } while (n == kMaxFetch);
    }
    const std::int64_t now = NowNs();
    if (!churned && now >= churn_due) {
      Result<Client::Registered> r =
          TimedRegister(*d->churn, spec.churn_query, churn_due, p.ops, timer);
      if (r.ok()) timed_cancel(*d->churn, r->query_id);
      churned = true;
    }
    if (now >= next_wire_snapshot) {
      next_wire_snapshot += kWireSnapshotPeriodNs;
      const std::int64_t s0 = NowNs();
      p.ops.Count(d->client->SnapshotJson(/*whole_graph=*/true).ok());
      p.main_lane.Add("server.snapshot", ++seq, 0, s0, NowNs());
    }
    if (traced && now >= next_sample) {
      next_sample += kSamplePeriodNs;
      const std::int64_t s0 = NowNs();
      const pipes::metadata::MetricsSnapshot snap = d->engine->Snapshot();
      p.main_lane.Add("metadata.snapshot", ++seq, 0, s0, NowNs());
      std::uint64_t state = 0;
      Timestamp feed_progress = pipes::kMinTimestamp;
      // The feed's inlet is named after its stream.
      if (const auto* inlet = snap.FindNode(spec.feed().name);
          inlet != nullptr && inlet->has_progress) {
        feed_progress = inlet->progress;
      }
      for (const auto& n : snap.nodes) {
        if (query_nodes.count(n.id) == 0) continue;
        state += n.memory_bytes;
        if (n.has_progress && n.progress <= feed_progress &&
            feed_progress != kMaxTimestamp) {
          p.watermark_lag_max_ms =
              std::max(p.watermark_lag_max_ms,
                       static_cast<double>(feed_progress - n.progress));
        }
      }
      p.state_bytes_peak = std::max(p.state_bytes_peak, state);
    }
    if (cycle_rows > 0) {
      check_done = false;
      continue;
    }
    if (done_before) break;
    check_done = closed.load();
    if (now - start_ns > kPassTimeoutNs) {
      p.ok = false;
      p.error = "pass did not drain within the time limit";
      break;
    }
    SleepUntilNs(NowNs() + kEmptyCycleBackoffNs);
  }
  const std::int64_t end_cpu = ProcessCpuNs();
  const std::map<int, std::int64_t> threads_cpu1 = ThreadCpuNs();
  const std::int64_t end_ns = NowNs();
  feeder.join();

  // Drain capacity and CPU split.
  const FeedLog& f = p.feed;
  const std::size_t drained = spec.feed().rows.size() - spec.fixed_events;
  p.drained = static_cast<double>(drained);
  p.drain_s = static_cast<double>(last_row_ns - f.drain_start_ns) / 1e9;
  p.drain_events_per_s = p.drained / p.drain_s;
  auto delta = [&](int tid) {
    auto a = f.threads_cpu0.find(tid);
    auto b = threads_cpu1.find(tid);
    return a == f.threads_cpu0.end() || b == threads_cpu1.end()
               ? std::int64_t{0}
               : b->second - a->second;
  };
  const std::int64_t gen_cpu = (f.own_cpu1 - f.own_cpu0) + delta(main_tid);
  const std::int64_t all_cpu = end_cpu - f.process_cpu0;
  p.system_cpu_us = static_cast<double>(all_cpu - gen_cpu) / 1e3;
  p.cpu_us_per_event = p.system_cpu_us / p.drained;
  p.gen_cpu_share =
      static_cast<double>(gen_cpu) / static_cast<double>(all_cpu);
  const double wall_ns = static_cast<double>(end_ns - f.drain_start_ns);
  for (const auto& [tid, cpu] : threads_cpu1) {
    if (tid == main_tid || tid == f.tid) continue;
    p.max_thread_cpu_share = std::max(
        p.max_thread_cpu_share, static_cast<double>(delta(tid)) / wall_ns);
  }
  p.phase_s = static_cast<double>(last_row_ns - start_ns) / 1e9;

  // Engine-side counts, per-run: this engine served only this pass.
  const pipes::engine::EngineStats stats = d->engine->stats();
  p.operators_created = stats.operators_created;
  p.operators_reused = stats.operators_reused;
  p.registrations = d->registrations + (churned ? 1 : 0);
  const std::uint64_t delivered =
      d->engine->tenant_counters(spec.tenant).results_delivered;
  for (const Received& r : p.received) p.rows += r.rows.size();
  if (delivered != p.rows) {
    p.ok = false;
    p.error = "engine delivered " + std::to_string(delivered) +
              " rows, client received " + std::to_string(p.rows);
  }
  if (traced) {
    const pipes::metadata::MetricsSnapshot snap = d->engine->Snapshot();
    for (const auto& n : snap.nodes) {
      if (query_nodes.count(n.id) == 0) continue;
      const std::string cls = NodeClass(n.name);
      if (cls.empty()) continue;
      NodeClassTotals& t = p.classes[cls];
      t.elements_in += n.elements_in;
      t.busy_ms += static_cast<double>(n.service.sum_ns) *
                   pipes::obs::kLatencySamplePeriod / 1e6;
    }
  }
  for (const LiveQuery& q : d->queries) p.schemas.push_back(q.schema);
  if (!f.closed_ok) {
    p.ok = false;
    p.error = "closing the stream failed";
  }
  if (!churned) {
    p.ok = false;
    p.error = "the round ended before its churn pair was due";
  }
  p.peak_rss_mb = f.peak_rss_mb;
  // Teardown through the API: every resident query is cancelled over the
  // wire before the connections close.
  for (const LiveQuery& q : d->queries) timed_cancel(*d->client, q.id);
  d.reset();
  pipes::obs::SetMetricsEnabled(false);

  // Latency of every row charged to a fixed-rate event. A row whose
  // validity ends after the phase's last event may need a drain event to
  // be emitted at all (an aggregate's segment closes on the next event),
  // so it is left out.
  std::vector<Timestamp> event_ts;
  event_ts.reserve(spec.feed().rows.size());
  for (const TupleElement& e : spec.feed().rows) event_ts.push_back(e.start());
  const Timestamp last_fixed_ts = event_ts[spec.fixed_events - 1];
  const std::size_t quarter = spec.fixed_events / 4;
  std::vector<double> early, late;
  for (const Received& r : p.received) {
    std::size_t row = 0;
    for (const auto& [end, receipt] : r.batches) {
      for (; row < end; ++row) {
        if (r.rows[row].end > last_fixed_ts) continue;
        const std::size_t idx = AttributeRow(event_ts, r.rows[row].start);
        if (idx == npos || idx >= spec.fixed_events) continue;
        const double ms = static_cast<double>(receipt - f.due_ns[idx]) / 1e6;
        p.latency_ms.push_back(ms);
        if (idx < quarter) early.push_back(ms);
        if (idx >= spec.fixed_events - quarter) late.push_back(ms);
      }
    }
  }
  p.early_p50_ms = Percentile(early, 0.5);
  p.late_p50_ms = Percentile(late, 0.5);
  return p;
}

// --- Oracle ------------------------------------------------------------------

std::string RenderRow(const TupleElement& e) {
  return "[" + std::to_string(e.start()) + ", " + std::to_string(e.end()) +
         ") " + e.payload.ToString();
}

/// "" when two canonical tables are equal, else their first difference.
std::string CanonicalDiff(const IntervalTable& want, const IntervalTable& got) {
  const std::size_t n = std::min(want.rows.size(), got.rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const TupleElement& a = want.rows[i];
    const TupleElement& b = got.rows[i];
    if (a.start() != b.start() || a.end() != b.end() ||
        !(a.payload == b.payload)) {
      return "canonical row " + std::to_string(i) + ": expected " +
             RenderRow(a) + ", received " + RenderRow(b);
    }
  }
  if (want.rows.size() != got.rows.size()) {
    return "canonical forms differ in length: expected " +
           std::to_string(want.rows.size()) + " rows, received " +
           std::to_string(got.rows.size());
  }
  return "";
}

/// Canonical reference tables per distinct query text, computed once per
/// run.
class Oracle {
 public:
  explicit Oracle(const Corpus& corpus) : corpus_(corpus) {
    for (const CorpusStream& s : corpus_.streams) {
      (void)catalog_.RegisterStream(s.name, s.schema, nullptr, s.rate_hint);
    }
  }

  /// Evaluates the reference of every text not yet known.
  void Prepare(const std::vector<std::string>& texts) {
    std::vector<std::string> todo;
    for (const std::string& t : texts) {
      if (expected_.count(t) == 0 &&
          std::find(todo.begin(), todo.end(), t) == todo.end()) {
        todo.push_back(t);
      }
    }
    // One at a time: the reference materializes every time-overlapping
    // pair of a join before its predicate runs, several KiB per event.
    for (const std::string& t : todo) expected_.emplace(t, Reference(t));
  }

  /// "" when `received` is snapshot-equivalent to the reference of `text`
  /// (Prepare'd before). Both sides are compared in the canonical form of
  /// Canonicalize, which conformance.h defines as the snapshot-equivalence
  /// test: SnapshotDiff itself rescans every row at every instant, far too
  /// slow for tables of a million rows.
  std::string Check(const std::string& text, const Schema& schema,
                    const std::deque<Client::Row>& received) const {
    auto it = expected_.find(text);
    if (it == expected_.end()) return "no reference for " + text;
    if (!it->second.ok()) return it->second.status().ToString();
    Result<IntervalTable> actual = TableFromRows(received, schema);
    if (!actual.ok()) return "row parse: " + actual.status().ToString();
    return CanonicalDiff(*it->second,
                         pipes::testing::conformance::Canonicalize(*actual));
  }

  /// Direct cql::Compile of `text`, timed `reps` times (microseconds).
  std::vector<double> CompileUs(const std::string& text, int reps,
                                SpanLane& lane) const {
    std::vector<double> out;
    for (int i = 0; i < reps; ++i) {
      const std::int64_t t0 = NowNs();
      Result<pipes::cql::CompiledQuery> c = pipes::cql::Compile(text, catalog_);
      const std::int64_t t1 = NowNs();
      if (!c.ok()) continue;
      lane.Add("cql.compile", static_cast<std::uint64_t>(i + 1), 0, t0, t1);
      out.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    return out;
  }

 private:
  /// The canonical reference table of `text`, at wire precision.
  Result<IntervalTable> Reference(const std::string& text) const {
    PIPES_ASSIGN_OR_RETURN(pipes::cql::CompiledQuery compiled,
                           pipes::cql::Compile(text, catalog_));
    PIPES_ASSIGN_OR_RETURN(
        IntervalTable ref,
        pipes::testing::conformance::ReferenceEval(compiled.plan, corpus_));
    PIPES_ASSIGN_OR_RETURN(IntervalTable wire, AtWirePrecision(ref));
    return pipes::testing::conformance::Canonicalize(wire);
  }

  const Corpus& corpus_;
  pipes::cql::Catalog catalog_;
  std::map<std::string, Result<IntervalTable>> expected_;
};

/// Checks every resident query of round `p` against the reference and
/// frees its rows; notes the per-query row counts and any mismatch.
bool CheckRound(const ServedSpec& spec, RoundData& p, Oracle& oracle,
                std::vector<std::string>& notes) {
  // On this thread: worker threads would give the allocator new arenas
  // that the server threads of later rounds then share, which measurably
  // slows those rounds.
  oracle.Prepare(spec.queries);
  std::vector<std::string> verdicts(p.received.size());
  for (std::size_t i = 0; i < p.received.size(); ++i) {
    verdicts[i] =
        oracle.Check(spec.queries[i], p.schemas[i], p.received[i].rows);
  }
  bool all = true;
  std::string counts = "  rows per query:";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    counts += " " + std::to_string(p.received[i].rows.size());
    if (!verdicts[i].empty()) {
      notes.push_back("  q" + std::to_string(i) + " MISMATCH: " +
                      verdicts[i].substr(0, 2000));
      all = false;
    }
  }
  notes.push_back(counts + (all ? " (all match the reference)" : ""));
  p.received.clear();
  return all;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Median over rounds of one per-round value.
template <typename Fn>
double MedianOver(const std::vector<RoundData>& rounds, Fn value) {
  std::vector<double> v;
  for (const RoundData& r : rounds) v.push_back(value(r));
  return Median(std::move(v));
}

/// Gated end-to-end metrics of a pass. Drain capacity and CPU per event
/// are totals over totals: one round's drain falls into one of two
/// lock-contention regimes, and the total weighs them by their share.
/// `peak_rss_mb` is the warm-up round's: later rounds share the heap with
/// the oracle's tables, whose freed pages the allocator keeps.
std::vector<Metric> EndToEnd(const std::vector<RoundData>& rounds,
                             double peak_rss_mb) {
  std::vector<double> setup_s;
  double drained = 0, drain_s = 0, cpu_us = 0;
  for (const RoundData& r : rounds) {
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    drained += r.drained;
    drain_s += r.drain_s;
    cpu_us += r.system_cpu_us;
  }
  return {Metric("drain_events_per_s", drained / drain_s, "1/s"),
          Metric("cpu_us_per_event", cpu_us / drained, "us"),
          Metric("peak_rss_mb", peak_rss_mb, "MiB"),
          Metric("setup_s", Median(std::move(setup_s)), "s")};
}

/// Result and registration latencies of a pass: medians over rounds of
/// each round's percentile, so a round hit by a stall of the host moves
/// one vote, not the result. They are reported with the per-layer
/// metrics, not gated: between runs of identical code they move by more
/// than any bound a regression gate could use (host wake-up latency).
void Latencies(const std::vector<RoundData>& rounds,
               std::map<std::string, double>& out) {
  auto percentile = [&](std::vector<double> RoundData::*series, double q) {
    return MedianOver(rounds, [&](const RoundData& r) {
      return Percentile(r.*series, q);
    });
  };
  out["latency_p50_ms"] = percentile(&RoundData::latency_ms, 0.50);
  out["latency_p99_ms"] = percentile(&RoundData::latency_ms, 0.99);
  out["register_p50_ms"] = percentile(&RoundData::register_ms, 0.50);
  out["register_p99_ms"] = percentile(&RoundData::register_ms, 0.99);
}

/// The rounds' spans, for per-layer timings pooled over a pass.
std::vector<const SpanLane*> Lanes(const std::vector<RoundData>& rounds) {
  std::vector<const SpanLane*> lanes;
  for (const RoundData& r : rounds) {
    lanes.insert(lanes.end(), {&r.main_lane, &r.feed.lane});
  }
  return lanes;
}

/// Per-layer metrics of a traced pass: timings pooled over its rounds,
/// counts summed over them (each round is a fresh engine, so every count
/// is a per-run delta).
void PerLayer(const ServedSpec& spec, const std::vector<RoundData>& rounds,
              const Oracle& oracle, SpanLane& compile_lane,
              std::map<std::string, double>& out) {
  const std::vector<const SpanLane*> lanes = Lanes(rounds);
  RoundData p;  // Sums and maxima over the rounds.
  std::vector<double> late_ms;
  for (const RoundData& r : rounds) {
    p.rows += r.rows;
    p.fetches += r.fetches;
    p.useful_fetches += r.useful_fetches;
    p.result_bytes += r.result_bytes;
    p.phase_s += r.phase_s;
    p.operators_created += r.operators_created;
    p.operators_reused += r.operators_reused;
    p.registrations += r.registrations;
    p.state_bytes_peak = std::max(p.state_bytes_peak, r.state_bytes_peak);
    p.watermark_lag_max_ms =
        std::max(p.watermark_lag_max_ms, r.watermark_lag_max_ms);
    for (const auto& [cls, t] : r.classes) {
      p.classes[cls].busy_ms += t.busy_ms;
      p.classes[cls].elements_in += t.elements_in;
    }
    late_ms.insert(late_ms.end(), r.feed.late_ms.begin(), r.feed.late_ms.end());
  }
  const Summary fetch = Summarize(SpanDurationsUs(lanes, "server.fetch"));
  const Summary reg = Summarize(SpanDurationsUs(lanes, "server.register"));
  const Summary cancel = Summarize(SpanDurationsUs(lanes, "server.cancel"));
  const Summary wire = Summarize(SpanDurationsUs(lanes, "server.snapshot"));
  const Summary push = Summarize(SpanDurationsUs(lanes, "engine.push"));
  const Summary snap = Summarize(SpanDurationsUs(lanes, "metadata.snapshot"));
  const Summary late = Summarize(std::move(late_ms));
  std::vector<std::string> texts = spec.queries;
  texts.push_back(spec.churn_query);
  std::vector<double> compile_us;
  for (const std::string& t : texts) {
    for (double us : oracle.CompileUs(t, 5, compile_lane)) {
      compile_us.push_back(us);
    }
  }
  const auto rows = static_cast<double>(p.rows);
  const auto fetches = static_cast<double>(p.fetches);
  const auto created = static_cast<double>(p.operators_created);
  out["server.fetch_rtt_p50_us"] = fetch.p50;
  out["server.fetch_rtt_p99_us"] = fetch.p99;
  out["server.rows_per_fetch"] = Ratio(rows, fetches);
  out["server.result_bytes_per_s"] =
      Ratio(static_cast<double>(p.result_bytes), p.phase_s);
  out["server.fetch_useful_ratio"] =
      Ratio(static_cast<double>(p.useful_fetches), fetches);
  out["server.register_rtt_p50_us"] = reg.p50;
  out["server.register_rtt_p99_us"] = reg.p99;
  out["server.cancel_rtt_p99_us"] = cancel.p99;
  out["server.snapshot_rtt_p50_us"] = wire.p50;
  out["cql.compile_p50_us"] = Percentile(compile_us, 0.5);
  out["optimizer.reuse_ratio"] =
      Ratio(static_cast<double>(p.operators_reused),
            created + static_cast<double>(p.operators_reused));
  out["optimizer.operators_per_register"] =
      Ratio(created, static_cast<double>(p.registrations));
  out["engine.push_p50_us"] = push.p50;
  out["engine.push_p99_us"] = push.p99;
  out["engine.push_busy_s"] = push.sum / 1e6;
  out["gen.late_p99_ms"] = late.p99;
  out["gen.late_max_ms"] = late.max;
  out["gen.cpu_share"] =
      MedianOver(rounds, [](const RoundData& r) { return r.gen_cpu_share; });
  for (const auto& [cls, t] : p.classes) {
    out["algebra." + cls + ".busy_ms"] = t.busy_ms;
    out["algebra." + cls + ".elements_in"] = static_cast<double>(t.elements_in);
  }
  out["sweeparea.state_bytes_peak"] = static_cast<double>(p.state_bytes_peak);
  out["scheduler.watermark_lag_max_ms"] = p.watermark_lag_max_ms;
  out["scheduler.max_thread_cpu_share"] = MedianOver(
      rounds, [](const RoundData& r) { return r.max_thread_cpu_share; });
  out["metadata.snapshot_rtt_ms"] = snap.p50 / 1e3;
}

void Describe(const RoundData& p, const std::string& label,
              std::vector<std::string>& notes) {
  const Summary lat = Summarize(p.latency_ms);
  const Summary reg = Summarize(p.register_ms);
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "%s: drain %.0f events/s | latency p50 %.3f p99 %.3f ms (n=%zu; "
      "first/last quarter p50 %.3f/%.3f) | register p50 %.3f p99 %.3f ms "
      "(n=%zu) | cpu %.3f us/event, load generator %.0f%% of CPU | setup cpu "
      "%.5f s | rows %llu | peak rss %.0f MiB",
      label.c_str(), p.drain_events_per_s, lat.p50, lat.p99, lat.count,
      p.early_p50_ms, p.late_p50_ms, reg.p50, reg.p99, reg.count,
      p.cpu_us_per_event, 100 * p.gen_cpu_share, Median(p.setup_s),
      static_cast<unsigned long long>(p.rows), p.peak_rss_mb);
  notes.push_back(line);
}

/// A fixed-rate phase whose backlog grew measured a queue, not a latency.
bool BacklogGrew(const RoundData& p) {
  return p.late_p50_ms > std::max(5 * p.early_p50_ms, p.early_p50_ms + 20);
}

}  // namespace

PassResult RunEspbenchServe(const RunOptions& options, bool traced) {
  PassResult result;
  // Decided once, before anything of PIPES runs: after this, a refused
  // connection or a failed server start is the program's failure.
  if (const std::string refused = LoopbackProbe(); !refused.empty()) {
    result.skipped = true;
    result.notes.push_back("loopback TCP refused: " + refused);
    return result;
  }
  const ServedSpec spec = EspbenchServe(options);
  Oracle oracle(spec.corpus);
  std::vector<std::vector<RoundData>> passes;
  std::vector<double> peak_rss_mb;  // Per pass.
  for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
    std::vector<RoundData> rounds;
    for (int k = 0; k <= kRounds; ++k) {
      RoundData r = RunRound(spec, /*traced=*/pass == 1);
      result.attempted += r.ops.attempted + r.feed.ops.attempted;
      result.failed += r.ops.failed + r.feed.ops.failed;
      if (!r.ok) {
        result.correct = false;
        result.notes.push_back("round failed: " + r.error);
        return result;
      }
      Describe(r,
               std::string(pass == 1 ? "traced" : "untraced") +
                   (k == 0 ? " warm-up round" : " round " + std::to_string(k)),
               result.notes);
      if (BacklogGrew(r)) {
        result.correct = false;
        result.notes.push_back(
            "INVALID fixed-rate phase: backlog grew (last-quarter latency "
            "far above first-quarter)");
      }
      // Checked between rounds, on this thread (see CheckRound), and
      // freed before the next round starts.
      if (!CheckRound(spec, r, oracle, result.notes)) result.correct = false;
      // The first round ran on a cold process: checked, not measured, but
      // the only one whose memory peak is the system's alone.
      if (k == 0) peak_rss_mb.push_back(r.peak_rss_mb);
      if (k > 0) rounds.push_back(std::move(r));
    }
    passes.push_back(std::move(rounds));
  }
  if (result.failed > 0) result.correct = false;
  result.end_to_end = EndToEnd(passes[0], peak_rss_mb[0]);
  if (!traced) return result;

  std::map<std::string, double> layers;
  SpanLane compile_lane(true);
  PerLayer(spec, passes[1], oracle, compile_lane, layers);
  Latencies(passes[0], layers);
  const double untraced = result.end_to_end[0].value;
  const double traced_eps = EndToEnd(passes[1], peak_rss_mb[1])[0].value;
  layers["trace.overhead_pct"] = 100 * (untraced - traced_eps) / untraced;
  result.per_layer = PerLayerMetrics(layers);
  if (!options.span_path.empty()) {
    std::vector<const SpanLane*> lanes = Lanes(passes[1]);
    lanes.push_back(&compile_lane);
    const bool written = WriteSpans(options.span_path, lanes);
    result.notes.push_back(
        (written ? "spans written to " : "could not write ") +
        options.span_path);
  }
  return result;
}

}  // namespace perfbench
