// Unit tests for the temporal operator algebra: windows, union, join,
// aggregation, distinct, difference, coalesce, reordering.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/coalesce.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/join.h"
#include "src/algebra/reorder.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"

namespace pipes {
namespace {

using namespace pipes::algebra;  // NOLINT: test-local convenience

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::SingleThreadScheduler driver(graph, strategy);
  driver.RunToCompletion();
}

template <typename T>
std::vector<StreamElement<T>> Sorted(std::vector<StreamElement<T>> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const StreamElement<T>& a, const StreamElement<T>& b) {
                     if (a.start() != b.start()) return a.start() < b.start();
                     if (a.end() != b.end()) return a.end() < b.end();
                     return a.payload < b.payload;
                   });
  return v;
}

TEST(Window, TimeWindowWidensIntervals) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2}, /*t0=*/10));
  auto& window = graph.Add<TimeWindow<int>>(100);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(10, 110));
  EXPECT_EQ(sink.elements()[1].interval, TimeInterval(11, 111));
}

TEST(Window, SlideWindowAlignsToGrid) {
  QueryGraph graph;
  // Elements at t = 0, 7, 13; RANGE 10 SLIDE 5.
  std::vector<StreamElement<int>> input = {
      StreamElement<int>::Point(1, 0), StreamElement<int>::Point(2, 7),
      StreamElement<int>::Point(3, 13)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<SlideWindow<int>>(10, 5);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 3u);
  // t=0: visible at instants 0, 5 (window (τ-10, τ]) -> [0, 10).
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(0, 10));
  // t=7: visible at instants 10, 15 -> [10, 20).
  EXPECT_EQ(sink.elements()[1].interval, TimeInterval(10, 20));
  // t=13: visible at instants 15, 20 -> [15, 25).
  EXPECT_EQ(sink.elements()[2].interval, TimeInterval(15, 25));
}

TEST(Window, CountWindowExpiresAfterNSuccessors) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {
      StreamElement<int>::Point(1, 0), StreamElement<int>::Point(2, 10),
      StreamElement<int>::Point(3, 20), StreamElement<int>::Point(4, 30)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<CountWindow<int>>(2);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 4u);
  // Element 1 expires when element 3 (its 2nd successor) arrives.
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(0, 20));
  EXPECT_EQ(sink.elements()[1].interval, TimeInterval(10, 30));
  // The last two never expire.
  EXPECT_EQ(sink.elements()[2].interval, TimeInterval(20, kMaxTimestamp));
  EXPECT_EQ(sink.elements()[3].interval, TimeInterval(30, kMaxTimestamp));
}

TEST(Window, PartitionedWindowKeepsRowsPerKey) {
  QueryGraph graph;
  // Keys alternate 0/1; ROWS 1 per partition.
  std::vector<StreamElement<int>> input = {
      StreamElement<int>::Point(0, 0), StreamElement<int>::Point(1, 10),
      StreamElement<int>::Point(2, 20), StreamElement<int>::Point(3, 30)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto key = [](int v) { return v % 2; };
  auto& window =
      graph.Add<PartitionedWindow<int, decltype(key)>>(key, 1);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  Drain(graph);

  auto out = Sorted(sink.elements());
  ASSERT_EQ(out.size(), 4u);
  // 0 expires when 2 arrives (same partition), 1 when 3 arrives.
  EXPECT_EQ(out[0].interval, TimeInterval(0, 20));
  EXPECT_EQ(out[1].interval, TimeInterval(10, 30));
  EXPECT_EQ(out[2].interval, TimeInterval(20, kMaxTimestamp));
  EXPECT_EQ(out[3].interval, TimeInterval(30, kMaxTimestamp));
}

TEST(Union, MergesInStartOrder) {
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 3}, /*t0=*/0));  // starts 0, 1
  auto& b = graph.Add<VectorSource<int>>(std::vector<StreamElement<int>>{
      StreamElement<int>::Point(2, 0), StreamElement<int>::Point(4, 5)});
  auto& u = graph.Add<Union<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  a.AddSubscriber(u.left());
  b.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 4u);
  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    EXPECT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  EXPECT_TRUE(sink.done());
}

TEST(Join, HashEquiJoinMatchesOverlappingIntervalsOnly) {
  QueryGraph graph;
  // Left: key 7 valid [0, 10); key 8 valid [5, 15).
  std::vector<StreamElement<int>> left = {StreamElement<int>(7, 0, 10),
                                          StreamElement<int>(8, 5, 15)};
  // Right: key 7 valid [8, 20) -> overlaps; key 8 valid [20, 30) -> no.
  std::vector<StreamElement<int>> right = {StreamElement<int>(7, 8, 20),
                                           StreamElement<int>(8, 20, 30)};
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return std::make_pair(a, b); };
  auto& join = graph.Add(MakeHashJoin<int, int>(identity, identity,
                                                    combine));
  auto& sink = graph.Add<CollectorSink<std::pair<int, int>>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 1u);
  EXPECT_EQ(sink.elements()[0].payload, std::make_pair(7, 7));
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(8, 10));
}

TEST(Join, PurgesStateWithProgress) {
  QueryGraph graph;
  std::vector<StreamElement<int>> left;
  std::vector<StreamElement<int>> right;
  for (int i = 0; i < 100; ++i) {
    left.push_back(StreamElement<int>(i, i * 10, i * 10 + 5));
    right.push_back(StreamElement<int>(i, i * 10, i * 10 + 5));
  }
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a * 1000 + b; };
  auto& join = graph.Add(MakeHashJoin<int, int>(identity, identity,
                                                    combine));
  auto& sink = graph.Add<CountingSink<int>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  Drain(graph);

  EXPECT_EQ(sink.count(), 100u);
  // With aligned progress on both sides, state must have been purged far
  // below the input size.
  EXPECT_LT(join.left_state_size() + join.right_state_size(), 10u);
}

TEST(Join, BandJoinMatchesWithinBand) {
  QueryGraph graph;
  std::vector<StreamElement<int>> left = {StreamElement<int>(10, 0, 100)};
  std::vector<StreamElement<int>> right = {StreamElement<int>(12, 0, 100),
                                           StreamElement<int>(13, 1, 100),
                                           StreamElement<int>(8, 2, 100)};
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto key = [](int v) { return v; };
  auto combine = [](int a, int b) { return std::make_pair(a, b); };
  auto& join =
      graph.Add(MakeBandJoin<int, int>(key, key, /*band=*/2, combine));
  auto& sink = graph.Add<CollectorSink<std::pair<int, int>>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  Drain(graph);

  // |10-12| <= 2 and |10-8| <= 2 match; |10-13| does not.
  auto out = Sorted(sink.elements());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, std::make_pair(10, 12));
  EXPECT_EQ(out[1].payload, std::make_pair(10, 8));
}

TEST(Join, LoadSheddingRespectsMemoryLimitAndCounts) {
  QueryGraph graph;
  std::vector<StreamElement<int>> left;
  for (int i = 0; i < 1000; ++i) {
    left.push_back(StreamElement<int>(0, i, i + 1000000));  // long validity
  }
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(std::vector<StreamElement<int>>{});
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a + b; };
  auto& join = graph.Add(MakeHashJoin<int, int>(identity, identity,
                                                    combine));
  auto& sink = graph.Add<CountingSink<int>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());

  const std::size_t limit = 64 * 52;  // roughly 64 elements worth
  join.SetMemoryLimit(limit);
  // Drive only the left source: the right input never progresses, so no
  // purging happens and state would grow without shedding.
  while (l.HasWork()) l.DoWork(100);

  EXPECT_LE(join.MemoryUsage(), limit);
  EXPECT_GT(join.shed_count(), 0u);
  (void)r;
  (void)sink;
}

// --- Join state holds only what can still match -----------------------------
// An element whose validity ends at or before the opposite watermark is
// never stored (the predicate PurgeBefore would delete it by). Checked for
// every SweepArea kind on the per-element, columnar and shedding paths.

/// A source staged by hand: elements one at a time or as one columnar run.
class StagedSource : public Source<int> {
 public:
  explicit StagedSource(std::string name) : Source<int>(std::move(name)) {}

  void Emit(const std::vector<StreamElement<int>>& elements, bool as_run) {
    if (as_run) {
      ColumnarRun<int> run;
      for (const StreamElement<int>& e : elements) run.Append(e);
      TransferRun(std::move(run));
    } else {
      for (const StreamElement<int>& e : elements) Transfer(e);
    }
  }
  void EmitHeartbeat(Timestamp t) { TransferHeartbeat(t); }
  void EmitDone() { TransferDone(); }
};

struct IntKey {
  int operator()(const int& v) const { return v; }
};
struct SameInt {
  bool operator()(const int& l, const int& r) const { return l == r; }
};
struct PairCode {
  int operator()(const int& l, const int& r) const { return l * 1000 + r; }
};

struct HashJoinKind {
  static auto Make() {
    return MakeHashJoin<int, int>(IntKey{}, IntKey{}, PairCode{});
  }
};
struct NestedLoopsJoinKind {
  static auto Make() {
    return MakeNestedLoopsJoin<int, int>(SameInt{}, PairCode{});
  }
};
struct BandJoinKind {
  static auto Make() {
    return MakeBandJoin<int, int>(IntKey{}, IntKey{}, /*band=*/0, PairCode{});
  }
};
struct SpillableHashJoinKind {
  static auto Make() {
    return MakeSpillableHashJoin<int, int>(IntKey{}, IntKey{}, PairCode{});
  }
};

enum class JoinPath { kPerElement, kColumnar, kShed };

/// One join between two staged sources, on one delivery path.
template <typename Kind>
struct StagedJoin {
  explicit StagedJoin(JoinPath delivery)
      : path(delivery),
        left(graph.Add<StagedSource>("left")),
        right(graph.Add<StagedSource>("right")),
        join(graph.Add(Kind::Make())),
        sink(graph.Add<CollectorSink<int>>()) {
    left.AddSubscriber(join.left());
    right.AddSubscriber(join.right());
    join.AddSubscriber(sink.input());
    if (path == JoinPath::kShed) {
      // A finite limit far above the state: the shedding path is active
      // (per-element fallback) but never evicts.
      join.set_shed_policy(ShedPolicy::kEvictFromLargerArea);
      join.SetMemoryLimit(std::size_t{1} << 30);
    }
  }

  void EmitLeft(const std::vector<StreamElement<int>>& elements) {
    left.Emit(elements, path == JoinPath::kColumnar);
  }
  void EmitRight(const std::vector<StreamElement<int>>& elements) {
    right.Emit(elements, path == JoinPath::kColumnar);
  }

  JoinPath path;
  QueryGraph graph;
  StagedSource& left;
  StagedSource& right;
  std::remove_reference_t<decltype(*Kind::Make())>& join;
  CollectorSink<int>& sink;
};

template <typename Kind>
class JoinStateTest : public ::testing::Test {};
using JoinKinds = ::testing::Types<HashJoinKind, NestedLoopsJoinKind,
                                   BandJoinKind, SpillableHashJoinKind>;
TYPED_TEST_SUITE(JoinStateTest, JoinKinds);

const JoinPath kJoinPaths[] = {JoinPath::kPerElement, JoinPath::kColumnar,
                               JoinPath::kShed};

// Each delivery starts at its side's current watermark, so it raises no
// progress and triggers no purge: whatever the join stored is still there
// when the state sizes are read.

TYPED_TEST(JoinStateTest, ClosedOppositeSideMeansNoStateAndAllMatches) {
  for (const JoinPath path : kJoinPaths) {
    SCOPED_TRACE(static_cast<int>(path));
    // A closed relation on the right: rows 1..4, valid forever.
    StagedJoin<TypeParam> j(path);
    std::vector<StreamElement<int>> rows;
    for (int k = 1; k <= 4; ++k) rows.emplace_back(k, 0, kMaxTimestamp);
    j.EmitRight(rows);
    j.right.EmitDone();
    EXPECT_EQ(j.join.right_state_size(), 4u);

    // Events probe it; none is ever stored.
    std::vector<StreamElement<int>> expected;
    for (Timestamp t = 1; t <= 3; ++t) {
      j.left.EmitHeartbeat(t);
      std::vector<StreamElement<int>> events;
      for (int key = 1; key <= 5; ++key) {  // key 5 has no row
        events.push_back(StreamElement<int>(key, t, t + 10));
        if (key <= 4) expected.emplace_back(key * 1001, t, t + 10);
      }
      j.EmitLeft(events);
      EXPECT_EQ(j.join.left_state_size(), 0u);
    }
    j.left.EmitDone();
    EXPECT_TRUE(j.sink.done());
    EXPECT_EQ(Sorted(j.sink.elements()), Sorted(expected));
  }
}

TYPED_TEST(JoinStateTest, ClosedLeftSideMirrorsTheRule) {
  for (const JoinPath path : kJoinPaths) {
    SCOPED_TRACE(static_cast<int>(path));
    StagedJoin<TypeParam> j(path);
    j.EmitLeft({StreamElement<int>(7, 0, kMaxTimestamp)});
    j.left.EmitDone();
    j.right.EmitHeartbeat(3);
    j.EmitRight({StreamElement<int>(7, 3, 9), StreamElement<int>(8, 3, 9),
                 StreamElement<int>(7, 3, 5)});
    EXPECT_EQ(j.join.right_state_size(), 0u);
    EXPECT_EQ(j.join.left_state_size(), 1u);
    j.right.EmitDone();
    EXPECT_EQ(Sorted(j.sink.elements()),
              (std::vector<StreamElement<int>>{StreamElement<int>(7007, 3, 5),
                                               StreamElement<int>(7007, 3, 9)}));
  }
}

TYPED_TEST(JoinStateTest, StreamStreamStoresOnlyElementsOutlivingTheWatermark) {
  for (const JoinPath path : kJoinPaths) {
    SCOPED_TRACE(static_cast<int>(path));
    StagedJoin<TypeParam> j(path);
    j.right.EmitHeartbeat(20);  // no right element will start before 20
    j.left.EmitHeartbeat(5);
    // [5, 20) ends at the right watermark: it overlaps no future right
    // element. [5, 25) ends after it and still can.
    j.EmitLeft({StreamElement<int>(1, 5, 20), StreamElement<int>(1, 5, 25)});
    EXPECT_EQ(j.join.left_state_size(), 1u);

    j.left.EmitHeartbeat(30);
    j.right.EmitHeartbeat(22);
    j.EmitRight({StreamElement<int>(1, 22, 40), StreamElement<int>(2, 22, 30),
                 StreamElement<int>(1, 22, 35)});
    // Against the left watermark 30: [22, 30) is not stored, the others
    // are.
    EXPECT_EQ(j.join.right_state_size(), 2u);

    j.left.EmitDone();
    j.right.EmitDone();
    EXPECT_EQ(j.sink.elements(),
              (std::vector<StreamElement<int>>{StreamElement<int>(1001, 22, 25),
                                               StreamElement<int>(1001, 22, 25)}));
  }
}

TEST(Aggregate, SumOverlappingIntervals) {
  QueryGraph graph;
  // [0,10) value 1; [5,15) value 2 -> segments [0,5)=1, [5,10)=3, [10,15)=2.
  std::vector<StreamElement<int>> input = {StreamElement<int>(1, 0, 10),
                                           StreamElement<int>(2, 5, 15)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto value = [](int v) { return v; };
  auto& agg = graph.Add<TemporalAggregate<int, SumAgg<int>, decltype(value)>>(
      value);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[0],
            StreamElement<int>(1, 0, 5));
  EXPECT_EQ(sink.elements()[1], StreamElement<int>(3, 5, 10));
  EXPECT_EQ(sink.elements()[2], StreamElement<int>(2, 10, 15));
}

TEST(Aggregate, GapsProduceNoOutput) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {StreamElement<int>(1, 0, 5),
                                           StreamElement<int>(2, 10, 15)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto value = [](int v) { return v; };
  auto& agg =
      graph.Add<TemporalAggregate<int, CountAgg<int>, decltype(value)>>(
          value);
  auto& sink = graph.Add<CollectorSink<std::uint64_t>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(0, 5));
  EXPECT_EQ(sink.elements()[1].interval, TimeInterval(10, 15));
}

TEST(Aggregate, EmitsIncrementallyWithProgressNotOnlyAtEnd) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input;
  for (int i = 0; i < 10; ++i) {
    input.push_back(StreamElement<int>(1, i * 10, i * 10 + 10));
  }
  auto& source = graph.Add<VectorSource<int>>(input);
  auto value = [](int v) { return v; };
  auto& agg = graph.Add<TemporalAggregate<int, SumAgg<int>, decltype(value)>>(
      value);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());

  // Drive half the input: outputs must already appear (non-blocking).
  source.DoWork(5);
  EXPECT_GE(sink.elements().size(), 3u);
  Drain(graph);
  EXPECT_EQ(sink.elements().size(), 10u);
}

TEST(Aggregate, GroupedAggregatePerKey) {
  QueryGraph graph;
  // Two groups: evens and odds.
  std::vector<StreamElement<int>> input = {
      StreamElement<int>(2, 0, 10), StreamElement<int>(3, 0, 10),
      StreamElement<int>(4, 0, 10)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto key = [](int v) { return v % 2; };
  auto value = [](int v) { return v; };
  auto& agg = graph.Add<
      GroupedAggregate<int, SumAgg<int>, decltype(key), decltype(value)>>(
      key, value);
  auto& sink = graph.Add<CollectorSink<std::pair<int, int>>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  std::map<int, int> results;
  for (const auto& e : sink.elements()) {
    results[e.payload.first] = e.payload.second;
    EXPECT_EQ(e.interval, TimeInterval(0, 10));
  }
  EXPECT_EQ(results[0], 6);  // 2 + 4
  EXPECT_EQ(results[1], 3);
}

TEST(Aggregate, MinMaxAvgVariancePolicies) {
  using State = MinAgg<int>::State;
  State min_state = MinAgg<int>::Init();
  MinAgg<int>::Add(min_state, 5);
  MinAgg<int>::Add(min_state, 3);
  MinAgg<int>::Add(min_state, 9);
  EXPECT_EQ(MinAgg<int>::Result(min_state), 3);

  auto max_state = MaxAgg<int>::Init();
  MaxAgg<int>::Add(max_state, 5);
  MaxAgg<int>::Add(max_state, 9);
  MaxAgg<int>::Add(max_state, 3);
  EXPECT_EQ(MaxAgg<int>::Result(max_state), 9);

  auto avg_state = AvgAgg<int>::Init();
  AvgAgg<int>::Add(avg_state, 1);
  AvgAgg<int>::Add(avg_state, 2);
  AvgAgg<int>::Add(avg_state, 3);
  EXPECT_DOUBLE_EQ(AvgAgg<int>::Result(avg_state), 2.0);

  auto var_state = VarianceAgg<int>::Init();
  for (int v : {2, 4, 4, 4, 5, 5, 7, 9}) VarianceAgg<int>::Add(var_state, v);
  EXPECT_DOUBLE_EQ(VarianceAgg<int>::Result(var_state), 4.0);
}

TEST(Distinct, CollapsesDuplicatesPerSnapshot) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {StreamElement<int>(7, 0, 10),
                                           StreamElement<int>(7, 5, 20),
                                           StreamElement<int>(8, 5, 10)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& distinct = graph.Add<Distinct<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());
  Drain(graph);

  auto out = Sorted(sink.elements());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], StreamElement<int>(7, 0, 20));  // merged
  EXPECT_EQ(out[1], StreamElement<int>(8, 5, 10));
}

TEST(Difference, EmitsSurplusCopies) {
  QueryGraph graph;
  // Left: two copies of 5 on [0,10). Right: one copy of 5 on [5,10).
  std::vector<StreamElement<int>> left = {StreamElement<int>(5, 0, 10),
                                          StreamElement<int>(5, 0, 10)};
  std::vector<StreamElement<int>> right = {StreamElement<int>(5, 5, 10)};
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto& diff = graph.Add<Difference<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  l.AddSubscriber(diff.left());
  r.AddSubscriber(diff.right());
  diff.AddSubscriber(sink.input());
  Drain(graph);

  auto out = Sorted(sink.elements());
  // [0,5): 2-0=2 copies; [5,10): 2-1=1 copy.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], StreamElement<int>(5, 0, 5));
  EXPECT_EQ(out[1], StreamElement<int>(5, 0, 5));
  EXPECT_EQ(out[2], StreamElement<int>(5, 5, 10));
}

TEST(Difference, NegativeSurplusClampsToZero) {
  QueryGraph graph;
  std::vector<StreamElement<int>> left = {StreamElement<int>(5, 0, 10)};
  std::vector<StreamElement<int>> right = {StreamElement<int>(5, 0, 10),
                                           StreamElement<int>(5, 0, 10)};
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto& diff = graph.Add<Difference<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  l.AddSubscriber(diff.left());
  r.AddSubscriber(diff.right());
  diff.AddSubscriber(sink.input());
  Drain(graph);
  EXPECT_TRUE(sink.elements().empty());
}

TEST(Coalesce, MergesAdjacentEqualPayloads) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {
      StreamElement<int>(1, 0, 5), StreamElement<int>(1, 5, 10),
      StreamElement<int>(2, 10, 15), StreamElement<int>(1, 15, 20)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& coalesce = graph.Add<Coalesce<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(coalesce.input());
  coalesce.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[0], StreamElement<int>(1, 0, 10));
  EXPECT_EQ(sink.elements()[1], StreamElement<int>(2, 10, 15));
  EXPECT_EQ(sink.elements()[2], StreamElement<int>(1, 15, 20));
  EXPECT_EQ(coalesce.merged_count(), 1u);
}

TEST(Reorder, RestoresOrderWithinSlack) {
  QueryGraph graph;
  std::vector<StreamElement<int>> raw = {
      StreamElement<int>::Point(1, 5), StreamElement<int>::Point(2, 3),
      StreamElement<int>::Point(3, 8), StreamElement<int>::Point(4, 6),
      StreamElement<int>::Point(5, 12)};
  std::size_t next = 0;
  auto& source = graph.Add<ReorderingSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        if (next >= raw.size()) return std::nullopt;
        return raw[next++];
      },
      /*slack=*/4);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 5u);
  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    EXPECT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  EXPECT_EQ(source.dropped_count(), 0u);
}

TEST(Reorder, DropsElementsBeyondSlack) {
  QueryGraph graph;
  std::vector<StreamElement<int>> raw = {StreamElement<int>::Point(1, 100),
                                         StreamElement<int>::Point(2, 1)};
  std::size_t next = 0;
  auto& source = graph.Add<ReorderingSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        if (next >= raw.size()) return std::nullopt;
        return raw[next++];
      },
      /*slack=*/10);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);

  EXPECT_EQ(sink.elements().size(), 1u);
  EXPECT_EQ(source.dropped_count(), 1u);
}

}  // namespace
}  // namespace pipes
