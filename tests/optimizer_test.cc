// Tests for the optimizer: rewrite rules, cost model, alternatives,
// physical instantiation, and multi-query sharing — including end-to-end
// CQL execution against vector-backed tuple streams.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/join.h"
#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/optimizer/cost.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/plan_manager.h"
#include "src/optimizer/rules.h"
#include "src/scheduler/scheduler.h"

namespace pipes::optimizer {
namespace {

using relational::BinaryOp;
using relational::MakeBinary;
using relational::MakeField;
using relational::MakeLiteral;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema BidSchema() {
  return Schema({{"auction", ValueType::kInt},
                 {"bidder", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

Schema PersonSchema() {
  return Schema({{"id", ValueType::kInt}, {"city", ValueType::kString}});
}

StreamElement<Tuple> BidAt(Timestamp t, std::int64_t auction,
                           std::int64_t bidder, double price) {
  return StreamElement<Tuple>::Point(
      Tuple{Value(auction), Value(bidder), Value(price)}, t);
}

StreamElement<Tuple> PersonAt(Timestamp t, std::int64_t id,
                              const char* city) {
  return StreamElement<Tuple>::Point(Tuple{Value(id), Value(city)}, t);
}

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::SingleThreadScheduler driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(Rules, MergeFilters) {
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto p1 = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                       MakeLiteral(Value(10.0)));
  auto p2 = MakeBinary(BinaryOp::kLt, MakeField(0, "auction"),
                       MakeLiteral(Value(std::int64_t{5})));
  auto plan = FilterOp(FilterOp(scan, p1), p2);
  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);
  EXPECT_EQ(rewritten->kind, LogicalOp::Kind::kFilter);
  EXPECT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kStreamScan);
}

TEST(Rules, ExtractJoinKeysAndPushSidePredicates) {
  auto left = ScanOp("bids", BidSchema().WithPrefix("b"), WindowSpec{});
  auto right = ScanOp("persons", PersonSchema().WithPrefix("p"),
                      WindowSpec{});
  auto join = JoinOp(left, right, {}, nullptr);
  // b.bidder = p.id AND b.price > 10 AND p.city = 'Paris'
  auto key_eq = MakeBinary(BinaryOp::kEq, MakeField(1, "b.bidder"),
                           MakeField(3, "p.id"));
  auto left_only = MakeBinary(BinaryOp::kGt, MakeField(2, "b.price"),
                              MakeLiteral(Value(10.0)));
  auto right_only = MakeBinary(BinaryOp::kEq, MakeField(4, "p.city"),
                               MakeLiteral(Value("Paris")));
  auto predicate = MakeBinary(
      BinaryOp::kAnd, MakeBinary(BinaryOp::kAnd, key_eq, left_only),
      right_only);
  auto plan = FilterOp(join, predicate);

  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);

  ASSERT_EQ(rewritten->kind, LogicalOp::Kind::kJoin);
  ASSERT_EQ(rewritten->equi_keys.size(), 1u);
  EXPECT_EQ(rewritten->equi_keys[0].first, 1u);   // b.bidder
  EXPECT_EQ(rewritten->equi_keys[0].second, 0u);  // p.id in right schema
  EXPECT_EQ(rewritten->predicate, nullptr);
  // Side predicates pushed below the join.
  EXPECT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kFilter);
  EXPECT_EQ(rewritten->children[1]->kind, LogicalOp::Kind::kFilter);
}

TEST(Rules, PushFilterThroughProject) {
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto project = ProjectOp(
      scan, {MakeField(2, "price"), MakeField(0, "auction")},
      {"price", "auction"});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(0, "price"),
                         MakeLiteral(Value(10.0)));
  auto plan = FilterOp(project, pred);
  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);
  ASSERT_EQ(rewritten->kind, LogicalOp::Kind::kProject);
  ASSERT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kFilter);
  // The pushed predicate references the scan's field 2.
  EXPECT_NE(rewritten->children[0]->predicate->ToString().find("price"),
            std::string::npos);
}

TEST(Cost, FilterPushdownIsCheaper) {
  CostModel model;
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                         MakeLiteral(Value(10.0)));
  auto cross = JoinOp(scan, scan, {}, nullptr);
  auto filter_above = FilterOp(cross, pred);
  auto filter_below = JoinOp(FilterOp(scan, pred), scan, {}, nullptr);
  EXPECT_LT(model.Estimate(filter_below).cost,
            model.Estimate(filter_above).cost);
}

TEST(Cost, SharedSubplanIsFree) {
  CostModel model;
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                         MakeLiteral(Value(10.0)));
  auto plan = FilterOp(scan, pred);
  std::set<std::string> shared = {plan->Signature()};
  EXPECT_GT(model.Estimate(plan).cost, 0.0);
  EXPECT_DOUBLE_EQ(model.Estimate(plan, &shared).cost, 0.0);
}

TEST(Optimizer, EnumeratesJoinOrderAlternatives) {
  cql::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterStream("a", BidSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("b", BidSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("c", BidSchema()).ok());
  auto plan = cql::Compile(
      "SELECT 1 AS one FROM a [RANGE 1 SECONDS], b [RANGE 1 SECONDS], c "
      "[RANGE 1 SECONDS] WHERE a.auction = b.auction AND b.bidder = "
      "c.bidder",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Optimizer optimizer(&catalog);
  auto alternatives = optimizer.EnumerateAlternatives(plan->plan);
  // 3 leaves -> up to 6 join orders (plus the original), deduped.
  EXPECT_GE(alternatives.size(), 4u);

  auto result = optimizer.Optimize(plan->plan);
  EXPECT_GE(result.alternatives_considered, 4u);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_GT(result.cost, 0.0);
}

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    bid_source_ = &graph_.Add<VectorSource<Tuple>>(
        std::vector<StreamElement<Tuple>>{
            BidAt(1000, 1, 10, 25.0), BidAt(2000, 2, 11, 5.0),
            BidAt(3000, 1, 12, 40.0), BidAt(4000, 2, 10, 15.0)},
        "bids");
    person_source_ = &graph_.Add<VectorSource<Tuple>>(
        std::vector<StreamElement<Tuple>>{PersonAt(0, 10, "Paris"),
                                          PersonAt(0, 11, "Oakland"),
                                          PersonAt(0, 12, "Marburg")},
        "persons");
    ASSERT_TRUE(catalog_
                    .RegisterStream("bids", BidSchema(), bid_source_,
                                    /*rate_hint=*/100.0)
                    .ok());
    ASSERT_TRUE(catalog_
                    .RegisterStream("persons", PersonSchema(),
                                    person_source_, /*rate_hint=*/1.0)
                    .ok());
  }

  QueryGraph graph_;
  cql::Catalog catalog_;
  VectorSource<Tuple>* bid_source_ = nullptr;
  VectorSource<Tuple>* person_source_ = nullptr;
};

TEST_F(EndToEnd, FilterProjectQueryProducesExpectedTuples) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT price, auction FROM bids WHERE price > 20");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.elements()[0].payload.field(0).AsDouble(), 25.0);
  EXPECT_EQ(sink.elements()[0].payload.field(1).AsInt(), 1);
  EXPECT_DOUBLE_EQ(sink.elements()[1].payload.field(0).AsDouble(), 40.0);
}

TEST_F(EndToEnd, WindowedGroupedAggregateQuery) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_FALSE(sink.elements().empty());
  // The max over auction 1 must reach 40 in some segment.
  double best_auction1 = 0;
  for (const auto& e : sink.elements()) {
    if (e.payload.field(0).AsInt() == 1) {
      best_auction1 =
          std::max(best_auction1, e.payload.field(1).AsDouble());
    }
  }
  EXPECT_DOUBLE_EQ(best_auction1, 40.0);
}

TEST_F(EndToEnd, StreamJoinQueryMatchesBiddersToCities) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT b.price, p.city FROM bids [RANGE 1 HOURS] AS b, persons "
      "[UNBOUNDED] AS p WHERE b.bidder = p.id AND b.price > 20");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload.field(1).AsString(), "Paris");
  EXPECT_EQ(sink.elements()[1].payload.field(1).AsString(), "Marburg");
}

TEST_F(EndToEnd, JoinResidualRunsInsideTheHashJoin) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT b.price, p.city FROM bids [RANGE 1 HOURS] AS b, persons "
      "[UNBOUNDED] AS p WHERE b.bidder = p.id AND b.price > p.id * 2.0");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());

  // No filter node: the residual belongs to the join, whose name and
  // descriptor notes show the predicate text.
  const Node* join = nullptr;
  for (const Node* node : graph_.nodes()) {
    EXPECT_NE(node->Describe().op, "filter") << node->name();
    if (node->Describe().op == "hash-join") join = node;
  }
  ASSERT_NE(join, nullptr);
  const std::string prefix = "hash-join[";
  ASSERT_EQ(join->name().rfind(prefix, 0), 0u) << join->name();
  const std::string predicate = join->name().substr(
      prefix.size(), join->name().size() - prefix.size() - 1);
  const NodeDescriptor desc = join->Describe();
  ASSERT_EQ(desc.notes.size(), 1u);
  EXPECT_NE(desc.notes[0].find(predicate), std::string::npos)
      << desc.notes[0];
  EXPECT_TRUE(desc.key_partitionable);

  Drain(graph_);
  // Bidder 10 bids 25 (> 20) and 15 (not), bidder 11 bids 5 (not > 22),
  // bidder 12 bids 40 (> 24).
  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload.field(1).AsString(), "Paris");
  EXPECT_EQ(sink.elements()[1].payload.field(1).AsString(), "Marburg");
}

TEST_F(EndToEnd, MultiQuerySharingReusesSubplans) {
  PlanManager manager(&graph_, &catalog_);
  auto first = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->operators_reused, 0u);
  EXPECT_GT(first->operators_created, 0u);

  // The same query again: everything shared, nothing new built.
  auto second = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->operators_created, 0u);
  EXPECT_GT(second->operators_reused, 0u);
  EXPECT_EQ(second->output, first->output);

  // An overlapping query shares the windowed scan at least.
  auto third = manager.InstallQuery(
      "SELECT auction, COUNT(*) AS n FROM bids [RANGE 10 SECONDS] GROUP BY "
      "auction");
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->operators_reused, 0u);

  // Both query outputs deliver to their sinks from the shared plan.
  auto& sink1 = graph_.Add<CollectorSink<Tuple>>("sink1");
  auto& sink3 = graph_.Add<CollectorSink<Tuple>>("sink3");
  first->output->AddSubscriber(sink1.input());
  third->output->AddSubscriber(sink3.input());
  Drain(graph_);
  EXPECT_FALSE(sink1.elements().empty());
  EXPECT_FALSE(sink3.elements().empty());
}

TEST_F(EndToEnd, SharingDisabledBuildsEverythingTwice) {
  PlanManager manager(&graph_, &catalog_, /*sharing=*/false);
  auto first =
      manager.InstallQuery("SELECT price FROM bids WHERE price > 20");
  auto second =
      manager.InstallQuery("SELECT price FROM bids WHERE price > 20");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(second->operators_reused, 0u);
  EXPECT_EQ(second->operators_created, first->operators_created);
  EXPECT_NE(second->output, first->output);
}

TEST_F(EndToEnd, InstallFailsForUnknownStream) {
  PlanManager manager(&graph_, &catalog_);
  EXPECT_FALSE(manager.InstallQuery("SELECT * FROM nosuch").ok());
}

// Two-field keys with a string field: group lookups and join probes read
// the key from the row in place, and must land exactly where the projected
// key would (int/double promotion and NULL included).

using Rows = std::vector<StreamElement<Tuple>>;

StreamElement<Tuple> RowOn(Value a, Value b, Value c) {
  return StreamElement<Tuple>(Tuple{std::move(a), std::move(b), std::move(c)},
                              0, 100);
}

TEST(TupleKeys, GroupAggregateOnAnIntAndAStringField) {
  QueryGraph graph;
  // (region, amount, city) grouped by (region, city).
  auto& source = graph.Add<VectorSource<Tuple>>(Rows{
      RowOn(Value(std::int64_t{1}), Value(2.0), Value("Marburg")),
      RowOn(Value(1.0), Value(3.0), Value("Marburg")),
      RowOn(Value(std::int64_t{1}), Value(4.0), Value("Paris")),
      RowOn(Value::Null(), Value(5.0), Value("Paris")),
      RowOn(Value::Null(), Value(6.0), Value("Paris")),
  });
  struct Identity {
    const Tuple& operator()(const Tuple& t) const { return t; }
  };
  using Grouped =
      algebra::GroupedAggregate<Tuple, TupleAggPolicy, FieldsKey, Identity>;
  auto& grouped = graph.Add<Grouped>(
      FieldsKey{{0, 2}}, Identity{}, "group-aggregate",
      TupleAggPolicy({AggSpec{AggKind::kSum, MakeField(1, "amount"), "s"}}));
  auto& sink = graph.Add<CollectorSink<std::pair<Tuple, Tuple>>>();
  source.AddSubscriber(grouped.input());
  grouped.AddSubscriber(sink.input());
  Drain(graph);

  std::map<std::string, double> sums;
  for (const auto& e : sink.elements()) {
    EXPECT_EQ(e.interval, TimeInterval(0, 100));
    sums[e.payload.first.ToString()] += e.payload.second.field(0).AsDouble();
  }
  EXPECT_EQ(sums, (std::map<std::string, double>{{"(1, Marburg)", 5.0},
                                                 {"(1, Paris)", 4.0},
                                                 {"(NULL, Paris)", 11.0}}));
}

TEST(TupleKeys, HashJoinOnAStringAndAnIntFieldWithAResidual) {
  QueryGraph graph;
  // Left (id, city, price), right (city, id, limit); the key is
  // (id, city) on both, the residual price > limit.
  auto& left = graph.Add<VectorSource<Tuple>>(Rows{
      RowOn(Value(std::int64_t{1}), Value("Paris"), Value(10.0)),
      RowOn(Value(std::int64_t{1}), Value("Paris"), Value(30.0)),
      RowOn(Value(std::int64_t{1}), Value("Rome"), Value(50.0)),
      RowOn(Value(std::int64_t{2}), Value("Paris"), Value(50.0)),
      RowOn(Value(2.0), Value("Marburg"), Value(5.0)),
  });
  auto& right = graph.Add<VectorSource<Tuple>>(Rows{
      RowOn(Value("Paris"), Value(std::int64_t{1}), Value(20.0)),
      RowOn(Value("Rome"), Value(std::int64_t{1}), Value(60.0)),
      RowOn(Value("Marburg"), Value(std::int64_t{2}), Value(0.0)),
      RowOn(Value("Paris"), Value(std::int64_t{2}), Value(40.0)),
  });
  const ConcatPredicate residual{
      MakeBinary(BinaryOp::kGt, MakeField(2, "price"), MakeField(5, "limit"))};
  auto& join = graph.Add(algebra::MakeHashJoin<Tuple, Tuple>(
      FieldsKey{{0, 1}}, FieldsKey{{1, 0}}, TupleConcatCombine{}, "hash-join",
      residual));
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  left.AddSubscriber(join.left());
  right.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  Drain(graph);

  std::multiset<std::string> got;
  for (const auto& e : sink.elements()) got.insert(e.payload.ToString());
  EXPECT_EQ(got, (std::multiset<std::string>{
                     "(1, Paris, 30, Paris, 1, 20)",
                     "(2, Paris, 50, Paris, 2, 40)",
                     "(2, Marburg, 5, Marburg, 2, 0)"}));
}

}  // namespace
}  // namespace pipes::optimizer
