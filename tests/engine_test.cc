// Tests for the `pipes::engine::Engine` facade: register/cancel churn with
// shared prefixes (the E5 flat-operator-count property), cancel-during-flow
// correctness against a single-query reference run (multiset-exact),
// admission control (reject and queue policies), per-tenant isolation of
// snapshots and counters, concurrent registration, the ingest FIFO and
// result outboxes that let writers, pollers and the pump overlap, and the
// lanes a pump runs in parallel (the concurrency cases are exercised under
// TSAN in the sanitizer CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/generator_source.h"
#include "src/core/pipeline.h"
#include "src/cql/analyzer.h"
#include "src/engine/engine.h"
#include "src/testing/conformance.h"
#include "src/workloads/espbench.h"
#include "src/workloads/espbench_cql.h"

namespace pipes::engine {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema TradesSchema() {
  return Schema({{"symbol", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

constexpr const char* kAvgQuery =
    "SELECT symbol, AVG(price) AS avg_price FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";
constexpr const char* kMaxQuery =
    "SELECT symbol, MAX(price) AS high FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";
constexpr const char* kCountQuery =
    "SELECT symbol, COUNT(*) AS n FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";
/// Stateless: one result row per pushed trade, in push order.
constexpr const char* kPassQuery =
    "SELECT symbol, price FROM trades WHERE price > 0";

/// Pushes `n` deterministic trades starting at `t0` (100ms apart).
void PushTrades(StreamWriter& writer, int n, Timestamp t0) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(writer
                    .Push(Tuple{Value(static_cast<std::int64_t>(i % 3)),
                                Value(20.0 + i)},
                          t0 + i * 100)
                    .ok());
  }
}

/// Canonical multiset form of a result stream: sorted (start, end, text).
std::vector<std::tuple<Timestamp, Timestamp, std::string>> Canonical(
    const std::vector<QueryHandle::Element>& elements) {
  std::vector<std::tuple<Timestamp, Timestamp, std::string>> out;
  out.reserve(elements.size());
  for (const auto& e : elements) {
    out.emplace_back(e.start(), e.end(), e.payload.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class EngineTest : public ::testing::Test {
 protected:
  Result<StreamWriter> AddTrades(Engine& engine) {
    return engine.AddStream("trades", TradesSchema(), /*rate_hint=*/10.0);
  }
};

// --- E5: churn keeps the shared graph flat ---------------------------------

TEST_F(EngineTest, RegisterCancelChurnKeepsOperatorCountFlat) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  const char* queries[] = {kAvgQuery, kMaxQuery, kCountQuery};

  // First wave instantiates everything once.
  std::vector<QueryHandle> wave;
  for (const char* q : queries) {
    auto handle = engine.Register(q);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    wave.push_back(*handle);
  }
  const std::size_t settled_nodes = engine.stats().graph_nodes;
  const std::size_t created_once = engine.stats().operators_created;
  EXPECT_GT(created_once, 0u);

  // Churn: five waves of duplicate registrations and cancellations. Every
  // operator already exists, so the graph must not grow and the plan
  // manager must only ever reuse.
  for (int round = 0; round < 5; ++round) {
    std::vector<QueryHandle> extra;
    for (const char* q : queries) {
      auto handle = engine.Register(q);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      extra.push_back(*handle);
    }
    EXPECT_EQ(engine.stats().operators_created, created_once)
        << "round " << round << " instantiated new operators for a fully "
        << "shared workload";
    EXPECT_EQ(engine.stats().graph_nodes, settled_nodes + extra.size())
        << "only per-query result sinks may be added";
    for (auto& handle : extra) {
      EXPECT_TRUE(handle.Cancel().ok());
    }
    EXPECT_EQ(engine.stats().graph_nodes, settled_nodes);
  }
  EXPECT_GT(engine.stats().operators_reused, 0u);

  // The original wave still works after all that churn.
  PushTrades(*writer, 40, 0);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();
  for (auto& handle : wave) {
    EXPECT_GT(handle.results_delivered(), 0u) << handle.id();
  }
}

// --- Cancel during flow: surviving query is exact --------------------------

TEST_F(EngineTest, CancelDuringFlowLeavesSurvivorExact) {
  // Run A: two overlapping queries; the MAX query is cancelled mid-stream.
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto keep = engine.Register(kAvgQuery);
  ASSERT_TRUE(keep.ok());
  auto victim = engine.Register(kMaxQuery);
  ASSERT_TRUE(victim.ok());

  PushTrades(*writer, 30, 0);
  engine.Pump(10);  // partial progress: elements in flight
  ASSERT_TRUE(victim->Cancel().ok());
  EXPECT_EQ(victim->state(), QueryState::kCancelled);
  PushTrades(*writer, 30, 3000);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();
  const auto survivor_results = Canonical(keep->Poll());
  ASSERT_FALSE(survivor_results.empty());

  // Run B: the reference — the surviving query alone over the same input.
  Engine reference;
  auto ref_writer = AddTrades(reference);
  ASSERT_TRUE(ref_writer.ok());
  auto ref_handle = reference.Register(kAvgQuery);
  ASSERT_TRUE(ref_handle.ok());
  PushTrades(*ref_writer, 30, 0);
  PushTrades(*ref_writer, 30, 3000);
  ASSERT_TRUE(ref_writer->Close().ok());
  reference.RunToCompletion();

  // Multiset-exact: cancelling the overlapping query must not add, drop,
  // or alter a single element of the survivor's output.
  EXPECT_EQ(survivor_results, Canonical(ref_handle->Poll()));
}

TEST_F(EngineTest, CancelledQueryStopsDeliveringButSurvivorFlows) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto keep = engine.Register(kAvgQuery);
  auto victim = engine.Register(kMaxQuery);
  ASSERT_TRUE(keep.ok() && victim.ok());

  PushTrades(*writer, 30, 0);
  engine.RunToCompletion();
  const std::uint64_t victim_results = victim->results_delivered();
  EXPECT_GT(victim_results, 0u);

  ASSERT_TRUE(engine.Cancel(victim->id()).ok());
  PushTrades(*writer, 30, 10'000);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();

  EXPECT_EQ(victim->results_delivered(), victim_results)
      << "cancelled query kept producing";
  EXPECT_TRUE(victim->Poll().empty());
  EXPECT_GT(keep->results_delivered(), 0u);

  // Double-cancel is an error, as is cancelling an unknown id.
  EXPECT_FALSE(victim->Cancel().ok());
  EXPECT_FALSE(engine.Cancel(99'999).ok());
}

// --- Admission control ------------------------------------------------------

TEST_F(EngineTest, RejectPolicyFailsOverQuota) {
  EngineOptions options;
  options.max_total_queries = 2;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery).ok());
  ASSERT_TRUE(engine.Register(kMaxQuery).ok());
  auto rejected = engine.Register(kCountQuery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().rejected_queries, 1u);
  EXPECT_EQ(engine.tenant_counters("default").rejected, 1u);

  // Capacity freed by a cancel is usable again.
  ASSERT_TRUE(engine.Cancel(1).ok());
  EXPECT_TRUE(engine.Register(kCountQuery).ok());
}

TEST_F(EngineTest, PerTenantQuotaIsIndependent) {
  EngineOptions options;
  options.max_queries_per_tenant = 1;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery, {.tenant = "a"}).ok());
  auto over = engine.Register(kMaxQuery, {.tenant = "a"});
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  // A different tenant still fits.
  EXPECT_TRUE(engine.Register(kMaxQuery, {.tenant = "b"}).ok());
}

TEST_F(EngineTest, QueuePolicyAdmitsWhenCapacityFrees) {
  EngineOptions options;
  options.max_total_queries = 1;
  options.admission = AdmissionPolicy::kQueue;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto first = engine.Register(kAvgQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->state(), QueryState::kRunning);

  auto parked = engine.Register(kMaxQuery);
  ASSERT_TRUE(parked.ok());
  EXPECT_EQ(parked->state(), QueryState::kQueued);
  EXPECT_EQ(engine.stats().queued_queries, 1u);

  // Cancelling the running query admits the parked one FIFO.
  ASSERT_TRUE(first->Cancel().ok());
  EXPECT_EQ(parked->state(), QueryState::kRunning);
  EXPECT_EQ(engine.stats().queued_queries, 0u);

  // A queued query can also be cancelled before it ever runs.
  auto parked2 = engine.Register(kCountQuery);
  ASSERT_TRUE(parked2.ok());
  EXPECT_EQ(parked2->state(), QueryState::kQueued);
  ASSERT_TRUE(parked2->Cancel().ok());
  EXPECT_EQ(parked2->state(), QueryState::kCancelled);
}

TEST_F(EngineTest, MemoryBudgetGatesAdmission) {
  EngineOptions options;
  options.memory_budget_bytes = 1;  // Anything with state is over budget.
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto first = engine.Register(kAvgQuery);
  ASSERT_TRUE(first.ok()) << "an empty engine must admit its first query";

  // Accumulate window state, then try to admit another query.
  PushTrades(*writer, 30, 0);
  engine.Pump(1024);
  auto second = engine.Register(kMaxQuery);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

// --- Certificate-gated admission --------------------------------------------

// Identical shape to kAvgQuery but a 60x window: the static certificate
// must scale with the window extent, so this query certifies far more
// state than its 1-second twin.
constexpr const char* kBigWindowQuery =
    "SELECT symbol, AVG(price) AS avg_price FROM trades "
    "[RANGE 60 SECONDS SLIDE 60 SECONDS] WHERE price > 10 GROUP BY symbol";

/// The `dataflow.cert_ram_bytes` gauge stamped on a query's result sink,
/// or -2 when no node carries it.
double CertRamGauge(const metadata::MetricsSnapshot& snap) {
  for (const auto& node : snap.nodes) {
    for (const auto& [name, value] : node.gauges) {
      if (name == "dataflow.cert_ram_bytes") return value;
    }
  }
  return -2.0;
}

TEST_F(EngineTest, CertificateGatesAdmissionStatically) {
  // Probe run (no budget): read both queries' certified RAM bounds off
  // their result-sink gauges so the gated budget below self-calibrates.
  double small_cert = 0.0, big_cert = 0.0;
  {
    EngineOptions options;
    options.certify_admission = true;
    Engine probe(options);
    auto writer = AddTrades(probe);
    ASSERT_TRUE(writer.ok());
    auto small = probe.Register(kAvgQuery);
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    auto big = probe.Register(kBigWindowQuery);
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    auto small_snap = small->Snapshot();
    auto big_snap = big->Snapshot();
    ASSERT_TRUE(small_snap.ok() && big_snap.ok());
    small_cert = CertRamGauge(*small_snap);
    big_cert = CertRamGauge(*big_snap);
    ASSERT_GT(small_cert, 0.0) << "certificate gauge missing from snapshot";
    ASSERT_GT(big_cert, small_cert)
        << "a 60x window must certify more state than its 1s twin";
  }

  // Gated run: a budget between the two certificates admits the small
  // query and statically rejects the big one before any element flows —
  // the runtime usage at registration time is zero in both cases, so only
  // the certificate can tell them apart.
  EngineOptions options;
  options.certify_admission = true;
  options.memory_budget_bytes =
      static_cast<std::size_t>((small_cert + big_cert) / 2);
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto small = engine.Register(kAvgQuery);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  auto big = engine.Register(kBigWindowQuery);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(big.status().ToString().find(
                "state certificate exceeds remaining memory budget"),
            std::string::npos)
      << big.status().ToString();
  EXPECT_EQ(engine.stats().rejected_queries, 1u);
}

TEST_F(EngineTest, QueuedCertificateAdmitsWhenHeadroomFrees) {
  // Calibrate the big query's certificate on a throwaway engine.
  double big_cert = 0.0;
  {
    EngineOptions options;
    options.certify_admission = true;
    Engine probe(options);
    auto writer = AddTrades(probe);
    ASSERT_TRUE(writer.ok());
    auto big = probe.Register(kBigWindowQuery);
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    auto snap = big->Snapshot();
    ASSERT_TRUE(snap.ok());
    big_cert = CertRamGauge(*snap);
    ASSERT_GT(big_cert, 0.0);
  }

  // Budget fits the big certificate only when the engine is idle. A small
  // running query whose accumulated state eats into the headroom parks
  // the big registration; cancelling the state-holder re-admits it.
  EngineOptions options;
  options.certify_admission = true;
  options.admission = AdmissionPolicy::kQueue;
  options.memory_budget_bytes = static_cast<std::size_t>(big_cert) + 1000;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto small = engine.Register(kAvgQuery);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  // A dense burst inside one window, spread over many groups: nothing is
  // purgeable yet, so the aggregate holds live per-group state well above
  // the 1000-byte slack in the budget.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(writer
                    ->Push(Tuple{Value(static_cast<std::int64_t>(i % 50)),
                                 Value(20.0 + i)},
                           i)
                    .ok());
  }
  engine.Pump(4096);

  auto big = engine.Register(kBigWindowQuery);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big->state(), QueryState::kQueued)
      << "accumulated state must shrink the headroom below the certificate";

  ASSERT_TRUE(small->Cancel().ok());
  EXPECT_EQ(big->state(), QueryState::kRunning)
      << "freed headroom must re-admit the queued certificate";
}

// --- Stream writer contract -------------------------------------------------

TEST_F(EngineTest, StreamWriterValidatesOrderAndClose) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 500).ok());
  // Time must not run backwards on an inlet.
  auto out_of_order =
      writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 400);
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(writer->Close().ok());
  auto after_close =
      writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 600);
  EXPECT_EQ(after_close.code(), StatusCode::kFailedPrecondition);

  // Duplicate stream names are rejected.
  EXPECT_FALSE(engine.AddStream("trades", TradesSchema()).ok());
}

// --- Tenant observability ---------------------------------------------------

TEST_F(EngineTest, TenantSnapshotSeesOnlyOwnOperators) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto qa = engine.Register(kAvgQuery, {.tenant = "alice"});
  auto qb = engine.Register(kMaxQuery, {.tenant = "bob"});
  ASSERT_TRUE(qa.ok() && qb.ok());

  const auto whole = engine.Snapshot();
  const auto alice = engine.TenantSnapshot("alice");
  const auto nobody = engine.TenantSnapshot("nobody");

  EXPECT_LT(alice.nodes.size(), whole.nodes.size());
  EXPECT_FALSE(alice.nodes.empty());
  EXPECT_TRUE(nobody.nodes.empty());

  // Alice's view covers her whole query but not Bob's aggregate.
  const auto qa_snap = qa->Snapshot();
  ASSERT_TRUE(qa_snap.ok());
  EXPECT_FALSE(qa_snap->nodes.empty());
  for (const auto& node : qa_snap->nodes) {
    EXPECT_NE(nullptr, alice.FindNode(node.id));
  }
  const auto qb_snap = qb->Snapshot();
  ASSERT_TRUE(qb_snap.ok());
  bool bob_has_private_node = false;
  for (const auto& node : qb_snap->nodes) {
    if (alice.FindNode(node.id) == nullptr) bob_has_private_node = true;
  }
  EXPECT_TRUE(bob_has_private_node);

  // Output nodes carry the tenant gauge the lint layer keys on (P019).
  bool gauge_seen = false;
  for (const Node* node : engine.graph().nodes()) {
    for (const auto& name : node->metadata().GaugeNames()) {
      if (name.rfind("engine.registered_output:", 0) == 0) gauge_seen = true;
    }
  }
  EXPECT_TRUE(gauge_seen);
}

TEST_F(EngineTest, CancelAllForTenantOnlyHitsThatTenant) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery, {.tenant = "alice"}).ok());
  ASSERT_TRUE(engine.Register(kMaxQuery, {.tenant = "alice"}).ok());
  auto bob = engine.Register(kCountQuery, {.tenant = "bob"});
  ASSERT_TRUE(bob.ok());

  EXPECT_EQ(engine.CancelAllForTenant("alice"), 2u);
  EXPECT_EQ(engine.tenant_counters("alice").live, 0u);
  EXPECT_EQ(engine.tenant_counters("alice").cancelled, 2u);
  EXPECT_EQ(bob->state(), QueryState::kRunning);
  EXPECT_EQ(engine.CancelAllForTenant("alice"), 0u);
}

// --- Pipeline registration --------------------------------------------------

TEST_F(EngineTest, PipelineQueryRegistersAndCancels) {
  Engine engine;
  const std::size_t empty_nodes = engine.stats().graph_nodes;

  Source<Tuple>* built = nullptr;
  auto handle = engine.Register(
      [&](QueryGraph& graph) -> Result<Source<Tuple>*> {
        auto tail =
            dsl::From(graph,
                      graph.Add(std::make_unique<VectorSource<Tuple>>(
                          std::vector<StreamElement<Tuple>>{
                              StreamElement<Tuple>::Point(
                                  Tuple{Value(std::int64_t{1})}, 0),
                              StreamElement<Tuple>::Point(
                                  Tuple{Value(std::int64_t{7})}, 100)},
                          "nums")))
            | dsl::Filter([](const Tuple& t) { return t.field(0).AsInt() > 2; },
                          "gt2");
        built = &tail.source();
        return built;
      });
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_GT(engine.stats().graph_nodes, empty_nodes);

  engine.RunToCompletion();
  const auto results = handle->Poll();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].payload.field(0).AsInt(), 7);

  ASSERT_TRUE(handle->Cancel().ok());
  EXPECT_EQ(handle->state(), QueryState::kCancelled);
}

// --- Concurrency (meaningful under TSAN) ------------------------------------

TEST_F(EngineTest, ConcurrentRegisterCancelPumpIsSafe) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  const char* queries[] = {kAvgQuery, kMaxQuery, kCountQuery};

  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load()) engine.Pump(64);
  });
  std::thread feeder([&] {
    Timestamp t = 0;
    while (!stop.load()) {
      (void)writer->Push(Tuple{Value(std::int64_t{1}), Value(42.0)}, t);
      t += 100;
    }
  });

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        auto handle = engine.Register(queries[(w + i) % 3],
                                      {.tenant = "t" + std::to_string(w)});
        if (!handle.ok()) {
          ++failures;
          continue;
        }
        if (i % 2 == 0 && !handle->Cancel().ok()) ++failures;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true);
  pumper.join();
  feeder.join();

  EXPECT_EQ(failures.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.total_registered, kThreads * kPerThread);
  EXPECT_EQ(stats.live_queries,
            kThreads * kPerThread - stats.cancelled_queries);
  engine.RunToCompletion();
}

// --- Ingest FIFO and result outboxes ----------------------------------------

Tuple Trade(int i) {
  return Tuple{Value(static_cast<std::int64_t>(i % 3)), Value(20.0 + i)};
}

TEST_F(EngineTest, FeederAndPumpThreadsMatchSingleThreadedRun) {
  // More rows than the FIFO holds, so the writer also meets a full FIFO
  // while the pump runs.
  constexpr int kRows = static_cast<int>(3 * Engine::kIngestBound) + 17;

  Engine reference;
  auto ref_writer = AddTrades(reference);
  ASSERT_TRUE(ref_writer.ok());
  auto ref_handle = reference.Register(kAvgQuery);
  ASSERT_TRUE(ref_handle.ok());
  PushTrades(*ref_writer, kRows, 0);
  ASSERT_TRUE(ref_writer->Close().ok());
  reference.RunToCompletion();
  const auto expected = Canonical(ref_handle->Poll());
  ASSERT_FALSE(expected.empty());

  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register(kAvgQuery);
  ASSERT_TRUE(handle.ok());
  std::atomic<bool> fed{false};
  std::thread feeder([&] {
    PushTrades(*writer, kRows, 0);
    EXPECT_TRUE(writer->Close().ok());
    fed.store(true);
  });
  std::thread pumper([&] {
    while (!fed.load()) {
      if (engine.Pump(256) == 0) {
        engine.WaitForInput(std::chrono::milliseconds(1));
      }
    }
  });
  // Poll concurrently with both, as a FETCH loop would.
  std::vector<QueryHandle::Element> got;
  while (!fed.load()) {
    for (auto& e : handle->Poll()) got.push_back(std::move(e));
  }
  feeder.join();
  pumper.join();
  engine.RunToCompletion();
  for (auto& e : handle->Poll()) got.push_back(std::move(e));
  EXPECT_EQ(Canonical(got), expected);
  EXPECT_EQ(handle->results_delivered(), expected.size());
}

TEST_F(EngineTest, WriterErrorsStaySynchronousWhilePumping) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(engine.Register(kPassQuery).ok());
  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load()) {
      if (engine.Pump(64) == 0) {
        engine.WaitForInput(std::chrono::milliseconds(1));
      }
    }
  });

  ASSERT_TRUE(writer->Push(Trade(1), 500).ok());
  EXPECT_EQ(writer->Push(Trade(2), 400).code(), StatusCode::kInvalidArgument);
  // A heartbeat moves the order check forward at once, before it drains.
  ASSERT_TRUE(writer->Heartbeat(1000).ok());
  EXPECT_EQ(writer->Push(Trade(3), 900).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Heartbeat(800).ok());  // Behind time: a no-op.
  ASSERT_TRUE(writer->Push(Trade(4), 1000).ok());
  ASSERT_TRUE(writer->Close().ok());
  ASSERT_TRUE(writer->Close().ok());  // Idempotent.
  EXPECT_EQ(writer->Push(Trade(5), 2000).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Heartbeat(3000).code(), StatusCode::kFailedPrecondition);

  stop.store(true);
  pumper.join();
  EXPECT_FALSE(StreamWriter().Push(Trade(6), 0).ok());
}

TEST_F(EngineTest, HeartbeatAndCloseKeepTheirPlaceBehindPendingPushes) {
  // Rows, a heartbeat past them, more rows, then close: queued all at once
  // in one engine, applied call by call in the other.
  auto feed = [](StreamWriter& writer, Engine* drain_each) {
    auto step = [&](Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      if (drain_each != nullptr) drain_each->RunToCompletion();
    };
    for (int i = 0; i < 10; ++i) step(writer.Push(Trade(i), i * 90));
    step(writer.Heartbeat(2500));
    for (int i = 10; i < 20; ++i) step(writer.Push(Trade(i), 2600 + i * 90));
    step(writer.Close());
  };

  Engine reference;
  auto ref_writer = AddTrades(reference);
  ASSERT_TRUE(ref_writer.ok());
  auto ref_handle = reference.Register(kCountQuery);
  ASSERT_TRUE(ref_handle.ok());
  feed(*ref_writer, &reference);
  const auto expected = Canonical(ref_handle->Poll());
  ASSERT_FALSE(expected.empty());

  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register(kCountQuery);
  ASSERT_TRUE(handle.ok());
  feed(*writer, nullptr);
  engine.RunToCompletion();
  EXPECT_EQ(Canonical(handle->Poll()), expected);
  // The close drained last: the inlet ends done, after all 20 rows.
  const metadata::MetricsSnapshot snap = engine.Snapshot();
  const auto* inlet = snap.FindNode("trades");
  ASSERT_NE(inlet, nullptr);
  EXPECT_EQ(inlet->elements_out, 20u);
  EXPECT_EQ(inlet->progress, kMaxTimestamp);
}

TEST_F(EngineTest, RowsPushedBeforeRegisterNeverReachIt) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto early = engine.Register(kPassQuery, {.tenant = "early"});
  ASSERT_TRUE(early.ok());
  // Queued, not pumped: the registration below must still come after them.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(writer->Push(Trade(i), i).ok());
  auto late = engine.Register(kPassQuery, {.tenant = "late"});
  ASSERT_TRUE(late.ok());
  for (int i = 50; i < 80; ++i) ASSERT_TRUE(writer->Push(Trade(i), i).ok());
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();

  EXPECT_EQ(early->Poll().size(), 80u);
  const auto rows = late->Poll();
  ASSERT_EQ(rows.size(), 30u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].start(), static_cast<Timestamp>(50 + i));
  }
}

TEST_F(EngineTest, SnapshotCountsQueuedRows) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  PushTrades(*writer, 7, 0);
  const metadata::MetricsSnapshot snap = engine.Snapshot();
  const auto* inlet = snap.FindNode("trades");
  ASSERT_NE(inlet, nullptr);
  EXPECT_EQ(inlet->elements_out, 7u);
}

TEST_F(EngineTest, PollReturnsWhileAnotherThreadIsInsidePump) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto pulled = engine.Register(kAvgQuery);
  auto pushed = engine.Register(kMaxQuery);
  ASSERT_TRUE(pulled.ok() && pushed.ok());
  // The push-mode callback runs inside Pump, under the graph lock; once
  // armed it holds the pump there until released.
  std::atomic<bool> armed{false};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  bool signalled = false;
  ASSERT_TRUE(pushed
                  ->OnResult([&](const QueryHandle::Element&) {
                    if (!armed.load() || signalled) return;
                    signalled = true;
                    entered.set_value();
                    released.wait();
                  })
                  .ok());

  PushTrades(*writer, 30, 0);
  engine.RunToCompletion();  // The pull-mode query now holds rows.
  armed.store(true);
  PushTrades(*writer, 30, 3000);
  std::thread pumper([&] { engine.RunToCompletion(); });
  entered.get_future().wait();

  auto poll = std::async(std::launch::async, [&] { return pulled->Poll(); });
  const bool prompt =
      poll.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  pumper.join();
  EXPECT_TRUE(prompt) << "Poll waited for the pump";
  EXPECT_FALSE(poll.get().empty());
}

TEST_F(EngineTest, PollAfterCancelIsEmpty) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register(kPassQuery);
  ASSERT_TRUE(handle.ok());
  const QueryHandle copy = *handle;
  PushTrades(*writer, 10, 0);
  engine.RunToCompletion();
  ASSERT_TRUE(handle->Cancel().ok());
  EXPECT_TRUE(handle->Poll().empty());
  EXPECT_TRUE(QueryHandle(copy).Poll().empty());
  EXPECT_EQ(handle->results_delivered(), 10u);
}

TEST_F(EngineTest, WriterFillingTheFifoWithoutAPumpCompletes) {
  // No pump thread: a writer that meets a full FIFO drains it itself.
  constexpr int kRows = static_cast<int>(2 * Engine::kIngestBound) + 3;
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register(kPassQuery);
  ASSERT_TRUE(handle.ok());
  PushTrades(*writer, kRows, 0);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();
  const auto rows = handle->Poll();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kRows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].start(), static_cast<Timestamp>(i * 100));
  }
}

// --- Lanes --------------------------------------------------------------------

/// The ESPBench feeds of a 30 s run (about 15k events), with overloads
/// so the alerting queries have rows.
struct EspbenchFeeds {
  std::vector<StreamElement<Tuple>> events;
  std::vector<StreamElement<Tuple>> machines;
  std::vector<StreamElement<Tuple>> orders;
};

EspbenchFeeds MakeEspbenchFeeds() {
  workloads::EspbenchOptions esp;
  esp.seed = 1;
  esp.duration_ms = 30'000;
  for (Timestamp t = 1000; t + 1000 < esp.duration_ms; t += 3000) {
    esp.overloads.push_back({t, t + 1000, t / 3000 % esp.num_machines, 2.0});
  }
  return {workloads::EspbenchEventRows(esp),
          workloads::EspbenchMachineRows(workloads::GenerateMachines(esp)),
          workloads::EspbenchOrderRows(workloads::GenerateOrders(esp))};
}

/// An engine serving the ESPBench catalog over inlets, as the served
/// benchmark sets it up: queries first, then the closed dimensions.
class EspbenchLanes : public ::testing::Test {
 protected:
  void SetUp() override {
    auto events = engine_.AddStream("events", workloads::EspbenchEventSchema());
    auto machines =
        engine_.AddStream("machines", workloads::EspbenchMachineSchema());
    auto orders = engine_.AddStream("orders", workloads::EspbenchOrderSchema());
    ASSERT_TRUE(events.ok() && machines.ok() && orders.ok());
    events_ = *events;
    for (const workloads::EspbenchCqlQuery& q :
         workloads::EspbenchCqlCatalog()) {
      auto handle = engine_.Register(q.text);
      ASSERT_TRUE(handle.ok()) << q.name << ": " << handle.status().ToString();
      handles_.push_back(*handle);
    }
    for (const auto& row : feeds_.machines) ASSERT_TRUE(machines->Push(row).ok());
    ASSERT_TRUE(machines->Close().ok());
    for (const auto& row : feeds_.orders) ASSERT_TRUE(orders->Push(row).ok());
    ASSERT_TRUE(orders->Close().ok());
    engine_.Pump();
  }

  /// Pushes the events in chunks just big enough for a pump to split the
  /// lanes over threads, pumping after each, then closes and drains.
  void FeedEvents() {
    constexpr std::size_t kChunk = Engine::kParallelRows;
    for (std::size_t i = 0; i < feeds_.events.size(); ++i) {
      ASSERT_TRUE(events_.Push(feeds_.events[i]).ok());
      if (i % kChunk == kChunk - 1) engine_.Pump();
    }
    ASSERT_TRUE(events_.Close().ok());
    engine_.RunToCompletion();
  }

  static bool Multicore() { return std::thread::hardware_concurrency() >= 2; }

  const EspbenchFeeds feeds_ = MakeEspbenchFeeds();
  Engine engine_;
  StreamWriter events_;
  std::vector<QueryHandle> handles_;
};

TEST_F(EspbenchLanes, CatalogSplitsIntoOneLanePerQuery) {
  const EngineStats stats = engine_.stats();
  EXPECT_EQ(stats.lanes, 5u);
  EXPECT_EQ(stats.parallel_pumps, 0u) << "set-up pumps must run inline";
}

TEST_F(EngineTest, QueriesSharingASubplanShareALane) {
  Engine engine;
  ASSERT_TRUE(AddTrades(engine).ok());
  auto avg = engine.Register(kAvgQuery);
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(engine.stats().lanes, 1u);
  const std::size_t created = engine.stats().operators_created;
  // Same window and filter: the plan manager grafts MAX onto AVG's prefix.
  ASSERT_TRUE(engine.Register(kMaxQuery).ok());
  ASSERT_GT(engine.stats().operators_reused, 0u);
  EXPECT_GT(engine.stats().operators_created, created);
  EXPECT_EQ(engine.stats().lanes, 1u);
  // A query sharing nothing but the inlet gets a lane of its own.
  auto pass = engine.Register(kPassQuery);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(engine.stats().lanes, 2u);
  ASSERT_TRUE(pass->Cancel().ok());
  EXPECT_EQ(engine.stats().lanes, 1u);
}

TEST_F(EspbenchLanes, ParallelPumpsMatchTheConformanceReference) {
  if (!Multicore()) GTEST_SKIP() << "lanes run in parallel only on >= 2 cores";
  FeedEvents();
  EXPECT_GT(engine_.stats().parallel_pumps, 0u);

  namespace conf = testing::conformance;
  conf::Corpus corpus;
  corpus.streams = {
      {"events", workloads::EspbenchEventSchema(), feeds_.events},
      {"machines", workloads::EspbenchMachineSchema(), feeds_.machines},
      {"orders", workloads::EspbenchOrderSchema(), feeds_.orders}};
  const auto& catalog = workloads::EspbenchCqlCatalog();
  for (std::size_t q = 0; q < catalog.size(); ++q) {
    auto compiled = cql::Compile(catalog[q].text, engine_.catalog());
    ASSERT_TRUE(compiled.ok()) << catalog[q].name;
    auto reference = conf::ReferenceEval(compiled->plan, corpus);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const conf::IntervalTable want = conf::Canonicalize(*reference);
    const conf::IntervalTable got = conf::Canonicalize(
        {handles_[q].schema(), handles_[q].Poll()});
    ASSERT_FALSE(want.rows.empty()) << catalog[q].name;
    EXPECT_EQ(conf::RenderTable(got), conf::RenderTable(want))
        << catalog[q].name;
  }
}

TEST_F(EspbenchLanes, PushCallbacksNeverOverlapForOneQuery) {
  constexpr std::size_t kQueries = 5;
  std::atomic<int> inside[kQueries] = {};
  std::atomic<std::uint64_t> results[kQueries] = {};
  std::atomic<int> overlaps{0};
  for (std::size_t q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(handles_[q]
                    .OnResult([&, q](const QueryHandle::Element&) {
                      if (inside[q].fetch_add(1) != 0) ++overlaps;
                      results[q].fetch_add(1);
                      inside[q].fetch_sub(1);
                    })
                    .ok());
  }
  FeedEvents();
  EXPECT_EQ(overlaps.load(), 0);
  for (std::size_t q = 0; q < kQueries; ++q) {
    EXPECT_GT(results[q].load(), 0u) << q;
    EXPECT_EQ(results[q].load(), handles_[q].results_delivered()) << q;
  }
}

}  // namespace
}  // namespace pipes::engine
