// Heap allocations per event of the five ESPBench CQL queries on one
// `Engine`. Rows are immutable shared blocks, key lookups borrow the row and
// join residuals read the pair in place, so an event costs a bounded handful
// of allocations (new output rows, new sweep-line state), not one per copy,
// key or residual. The global `operator new` is replaced to count them; the
// binary is its own process so nothing else shares the counter.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/workloads/espbench.h"
#include "src/workloads/espbench_cql.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

// Every replaceable `operator new` counts here; nullptr when out of memory.
void* CountedAlloc(std::size_t size, std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t alignment) {
  void* p = CountedAlloc(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  return CountedAllocOrThrow(size, kDefaultAlign);
}
void* operator new[](std::size_t size) {
  return CountedAllocOrThrow(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pipes::workloads {
namespace {

using relational::Tuple;

struct Measured {
  std::size_t events = 0;
  std::uint64_t allocations = 0;
  std::vector<std::size_t> rows;  // per catalog query
};

// The served benchmark's shape in process: the queries are registered
// first, the closed dimensions go in next, then the events stream through
// the inlet while the executor is pumped every 64 pushes. Only the event
// phase is counted.
Measured RunCatalog() {
  EspbenchOptions esp;
  esp.seed = 1;
  esp.duration_ms = 30'000;
  for (Timestamp t = 5000; t + 1000 < esp.duration_ms; t += 10'000) {
    esp.overloads.push_back({t, t + 1000, t / 10'000 % esp.num_machines, 2.0});
  }
  const std::vector<StreamElement<Tuple>> events = EspbenchEventRows(esp);
  const std::vector<StreamElement<Tuple>> machines =
      EspbenchMachineRows(GenerateMachines(esp));
  const std::vector<StreamElement<Tuple>> orders =
      EspbenchOrderRows(GenerateOrders(esp));

  engine::Engine engine;
  auto event_writer = engine.AddStream("events", EspbenchEventSchema());
  auto machine_writer =
      engine.AddStream("machines", EspbenchMachineSchema());
  auto order_writer = engine.AddStream("orders", EspbenchOrderSchema());
  EXPECT_TRUE(event_writer.ok() && machine_writer.ok() && order_writer.ok());
  std::vector<engine::QueryHandle> handles;
  for (const EspbenchCqlQuery& q : EspbenchCqlCatalog()) {
    Result<engine::QueryHandle> handle = engine.Register(q.text);
    EXPECT_TRUE(handle.ok()) << q.name;
    if (handle.ok()) handles.push_back(*handle);
  }
  for (const auto& row : machines) {
    EXPECT_TRUE(machine_writer->Push(row).ok());
  }
  EXPECT_TRUE(machine_writer->Close().ok());
  for (const auto& row : orders) EXPECT_TRUE(order_writer->Push(row).ok());
  EXPECT_TRUE(order_writer->Close().ok());
  engine.Pump();

  Measured m;
  m.events = events.size();
  bool pushed = true;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < events.size(); ++i) {
    pushed = event_writer->Push(events[i]).ok() && pushed;
    if (i % 64 == 63) engine.Pump();
  }
  pushed = event_writer->Close().ok() && pushed;
  engine.RunToCompletion();
  m.allocations = g_allocations.load() - before;
  EXPECT_TRUE(pushed);

  for (engine::QueryHandle& h : handles) m.rows.push_back(h.Poll().size());
  return m;
}

TEST(RowAlloc, EspbenchCatalogAllocatesAtMostFourTimesPerEvent) {
  const Measured m = RunCatalog();
  ASSERT_GT(m.events, 10'000u);
  const double per_event =
      static_cast<double>(m.allocations) / static_cast<double>(m.events);
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, 4.0) << m.allocations << " allocations over "
                            << m.events << " events";
  // The counted work is the real workload: every query keeps its rows.
  EXPECT_EQ(m.rows, (std::vector<std::size_t>{83, 7962, 732, 89, 720}));
}

}  // namespace
}  // namespace pipes::workloads
