#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/join.h"
#include "src/algebra/parallel.h"
#include "src/algebra/window.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/fixtures.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/optimizer/logical_plan.h"
#include "src/optimizer/plan_xml.h"
#include "src/relational/expression.h"
#include "src/relational/schema.h"
#include "src/sweeparea/hash_sweep_area.h"
#include "src/sweeparea/list_sweep_area.h"
#include "src/sweeparea/tree_sweep_area.h"

namespace pipes::analysis {
namespace {

using optimizer::WindowKind;
using optimizer::WindowSpec;
using relational::MakeBinary;
using relational::MakeField;
using relational::MakeLiteral;
using relational::Schema;
using relational::Value;
using relational::ValueType;

std::vector<Diagnostic> OfRule(const std::vector<Diagnostic>& diags,
                               const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule_id == rule) out.push_back(d);
  }
  return out;
}

// --- The broken-graph corpus -------------------------------------------------

/// Every rule of the catalog has at least one fixture, and every fixture
/// produces its expected diagnostic (exact rule, severity, node, path).
TEST(Fixtures, EveryRuleCoveredAndFires) {
  std::vector<std::string> covered;
  for (const LintFixture& fixture : BrokenGraphFixtures()) {
    EXPECT_EQ(CheckFixture(fixture), "") << fixture.name;
    covered.push_back(fixture.rule_id);
  }
  for (const RuleInfo& rule : RuleCatalog()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), rule.id),
              covered.end())
        << "rule " << rule.id << " has no fixture";
  }
}

/// Fixture severities match the catalog's declared severity per rule.
TEST(Fixtures, SeveritiesMatchCatalog) {
  for (const LintFixture& fixture : BrokenGraphFixtures()) {
    const auto& catalog = RuleCatalog();
    const auto it = std::find_if(
        catalog.begin(), catalog.end(),
        [&](const RuleInfo& r) { return fixture.rule_id == r.id; });
    ASSERT_NE(it, catalog.end()) << fixture.rule_id;
    EXPECT_EQ(static_cast<int>(fixture.severity),
              static_cast<int>(it->severity))
        << fixture.rule_id;
  }
}

/// Catalog <-> fixture parity is a bijection: every rule has EXACTLY one
/// firing fixture and every fixture names a cataloged rule. The lint CLI's
/// `--fixtures` self-check iterates this same corpus, so this test fails
/// on any drift between the catalog, the fixtures, and the CLI gate.
TEST(Fixtures, ExactlyOneFixturePerRule) {
  const auto& catalog = RuleCatalog();
  for (const RuleInfo& rule : catalog) {
    int hits = 0;
    for (const LintFixture& fixture : BrokenGraphFixtures()) {
      if (fixture.rule_id == rule.id) ++hits;
    }
    EXPECT_EQ(hits, 1) << "rule " << rule.id << " must have exactly one "
                       << "fixture, found " << hits;
  }
  for (const LintFixture& fixture : BrokenGraphFixtures()) {
    const auto it = std::find_if(
        catalog.begin(), catalog.end(),
        [&](const RuleInfo& r) { return fixture.rule_id == r.id; });
    EXPECT_NE(it, catalog.end())
        << "fixture " << fixture.name << " names unknown rule "
        << fixture.rule_id;
  }
  EXPECT_EQ(BrokenGraphFixtures().size(), catalog.size());
}

// --- Per-rule exactness beyond the corpus ------------------------------------

TEST(Lint, CleanLinearChainIsSilent) {
  QueryGraph graph;
  auto& src = graph.Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& window = graph.Add<algebra::TimeWindow<int>>(100, "window");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  src.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  EXPECT_TRUE(Lint(graph).empty()) << ToText(Lint(graph));
}

TEST(Lint, CycleReportIsSingleAndNamesAllMembers) {
  const auto& fixtures = BrokenGraphFixtures();
  const auto it = std::find_if(
      fixtures.begin(), fixtures.end(),
      [](const LintFixture& f) { return f.name == "cycle"; });
  ASSERT_NE(it, fixtures.end());
  const auto diags = it->build().LintAll();
  ASSERT_EQ(diags.size(), 1u) << ToText(diags);
  EXPECT_EQ(diags[0].rule_id, "P001");
  EXPECT_NE(diags[0].message.find("loop-a"), std::string::npos);
  EXPECT_NE(diags[0].message.find("loop-b"), std::string::npos);
}

/// A window between the unbounded window and the blocking operator
/// re-bounds validity: P006 must NOT fire.
TEST(Lint, WindowDownstreamOfUnboundedSuppressesP006) {
  QueryGraph graph;
  auto& src = graph.Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& unbounded = graph.Add<algebra::UnboundedWindow<int>>("unbounded");
  auto& rebound = graph.Add<algebra::TimeWindow<int>>(100, "rebound");
  auto& distinct = graph.Add<algebra::Distinct<int>>("distinct");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  src.AddSubscriber(unbounded.input());
  unbounded.AddSubscriber(rebound.input());
  rebound.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());
  EXPECT_TRUE(OfRule(Lint(graph), "P006").empty()) << ToText(Lint(graph));
}

/// The pinned assignment of a correctly built replicated stage is clean.
TEST(LintAssignment, PinnedAssignmentIsClean) {
  const LintSubject subject = BuildNexmarkLintGraph();
  ASSERT_GT(subject.num_workers, 0);
  const auto diags = LintAssignment(*subject.graph, subject.assignment,
                                    subject.num_workers);
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

// --- Clean workloads ---------------------------------------------------------

TEST(Workloads, TrafficGraphLintsClean) {
  const auto diags = BuildTrafficLintGraph().LintAll();
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

TEST(Workloads, NexmarkGraphLintsClean) {
  const auto diags = BuildNexmarkLintGraph().LintAll();
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

// --- Descriptor/trait consistency --------------------------------------------

/// The runtime descriptor's `key_partitionable` must agree with the
/// compile-time `KeyPartitionable` trait the replication helpers enforce —
/// the analyzer's P009 is exactly the type-erased mirror of that trait.
TEST(Descriptors, KeyPartitionableMatchesTrait) {
  struct IntKey {
    int operator()(const int& v) const { return v; }
  };
  struct IntValue {
    double operator()(const int& v) const { return static_cast<double>(v); }
  };
  struct Combine {
    int operator()(const int& l, const int& r) const { return l + r; }
  };

  using Grouped =
      algebra::GroupedAggregate<int, algebra::AvgAgg<double>, IntKey,
                                IntValue>;
  Grouped grouped(IntKey{}, IntValue{});
  EXPECT_EQ(grouped.Describe().key_partitionable,
            algebra::KeyPartitionable<Grouped>::value);
  EXPECT_TRUE(grouped.Describe().key_partitionable);

  algebra::Distinct<int> distinct;
  EXPECT_EQ(distinct.Describe().key_partitionable,
            algebra::KeyPartitionable<algebra::Distinct<int>>::value);

  using Scalar = algebra::TemporalAggregate<int, algebra::AvgAgg<double>,
                                            IntValue>;
  Scalar scalar(IntValue{});
  EXPECT_EQ(scalar.Describe().key_partitionable,
            algebra::KeyPartitionable<Scalar>::value);
  EXPECT_FALSE(scalar.Describe().key_partitionable);

  auto hash_join = algebra::MakeHashJoin<int, int>(IntKey{}, IntKey{},
                                                   Combine{}, "hj");
  using HashJoin = std::decay_t<decltype(*hash_join)>;
  EXPECT_EQ(hash_join->Describe().key_partitionable,
            algebra::KeyPartitionable<HashJoin>::value);
  EXPECT_TRUE(hash_join->Describe().key_partitionable);

  // A residual only filters pairs within one key bucket: still keyed.
  struct LessThan {
    bool operator()(const int& l, const int& r) const { return l < r; }
  };
  auto residual_join = algebra::MakeHashJoin<int, int>(
      IntKey{}, IntKey{}, Combine{}, "hj-residual", LessThan{});
  using ResidualJoin = std::decay_t<decltype(*residual_join)>;
  EXPECT_EQ(residual_join->Describe().key_partitionable,
            algebra::KeyPartitionable<ResidualJoin>::value);
  EXPECT_TRUE(residual_join->Describe().key_partitionable);

  // Theta joins (list sweep areas) must stay non-partitionable.
  auto theta = algebra::MakeNestedLoopsJoin<int, int>(LessThan{}, Combine{},
                                                      "theta");
  using ThetaJoin = std::decay_t<decltype(*theta)>;
  EXPECT_EQ(theta->Describe().key_partitionable,
            algebra::KeyPartitionable<ThetaJoin>::value);
  EXPECT_FALSE(theta->Describe().key_partitionable);
}

// --- Plan-level linting ------------------------------------------------------

Schema BidSchema() {
  return Schema({{"auction", ValueType::kInt},
                 {"bidder", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

TEST(LintPlan, CleanPlanProducesNoDiagnostics) {
  WindowSpec range;
  range.kind = WindowKind::kRange;
  range.range = 1000;
  auto scan = optimizer::ScanOp("bids", BidSchema(), range);
  auto plan = optimizer::FilterOp(
      scan, MakeBinary(relational::BinaryOp::kGt, MakeField(2, "price"),
                       MakeLiteral(Value(10.0))));
  auto diags = LintPlan(plan);
  ASSERT_TRUE(diags.ok()) << diags.status().ToString();
  EXPECT_TRUE(diags.value().empty()) << ToText(diags.value());
}

/// DISTINCT over an UNBOUNDED scan window is the textbook P006 case — the
/// analyzer must see it through the plan-materialization path too.
TEST(LintPlan, UnboundedDistinctTriggersP006) {
  WindowSpec unbounded;
  unbounded.kind = WindowKind::kUnbounded;
  auto scan = optimizer::ScanOp("bids", BidSchema(), unbounded);
  auto plan = optimizer::DistinctOp(scan);
  auto diags = LintPlan(plan);
  ASSERT_TRUE(diags.ok()) << diags.status().ToString();
  EXPECT_FALSE(OfRule(diags.value(), "P006").empty())
      << ToText(diags.value());
}

/// A hash join's residual predicate runs inside the join, not in a filter
/// node of its own; lint still shows its text, as a note on the join.
TEST(LintPlan, JoinResidualIsNotedOnTheJoin) {
  WindowSpec range;
  range.kind = WindowKind::kRange;
  range.range = 1000;
  auto plan = optimizer::JoinOp(
      optimizer::ScanOp("bids", BidSchema(), range),
      optimizer::ScanOp("bids", BidSchema(), range), {{0, 0}},
      MakeBinary(relational::BinaryOp::kLt, MakeField(2, "price"),
                 MakeField(5, "price")));
  auto diags = LintPlan(plan);
  ASSERT_TRUE(diags.ok()) << diags.status().ToString();
  const std::vector<Diagnostic> notes = OfRule(diags.value(), "P016");
  ASSERT_EQ(notes.size(), 1u) << ToText(diags.value());
  const std::string predicate = plan->predicate->ToString();
  EXPECT_EQ(notes[0].node, "hash-join[" + predicate + "]");
  EXPECT_NE(notes[0].message.find(predicate), std::string::npos)
      << notes[0].message;
}

/// The parity contract: linting a plan in memory and linting its XML
/// serialization yield identical diagnostics.
TEST(LintPlan, XmlRoundTripPreservesDiagnostics) {
  WindowSpec unbounded;
  unbounded.kind = WindowKind::kUnbounded;
  auto scan = optimizer::ScanOp("bids", BidSchema(), unbounded);
  auto pricey = optimizer::FilterOp(
      scan, MakeBinary(relational::BinaryOp::kGt, MakeField(2, "price"),
                       MakeLiteral(Value(10.0))));
  auto plan = optimizer::DistinctOp(optimizer::ProjectOp(
      pricey, {MakeField(0, "auction")}, {"auction"}));

  auto direct = LintPlan(plan);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto via_xml = LintPlanXml(optimizer::ToXml(plan));
  ASSERT_TRUE(via_xml.ok()) << via_xml.status().ToString();
  EXPECT_FALSE(direct.value().empty());
  EXPECT_EQ(direct.value(), via_xml.value())
      << "in-memory:\n" << ToText(direct.value()) << "via xml:\n"
      << ToText(via_xml.value());
}

TEST(LintPlan, MalformedXmlFailsCleanly) {
  EXPECT_FALSE(LintPlanXml("<not-a-plan>").ok());
}

// --- Rendering ---------------------------------------------------------------

TEST(Render, JsonEscapesAndTextMentionsRule) {
  Diagnostic d;
  d.rule_id = "P999";
  d.severity = Severity::kWarning;
  d.node = "a\"b";
  d.message = "line1\nline2";
  const std::string json = ToJson({d});
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  const std::string text = ToText({d});
  EXPECT_NE(text.find("P999"), std::string::npos);
  EXPECT_NE(text.find("warning"), std::string::npos);
}

TEST(Render, MaxSeverityAndCatalogOrdered) {
  EXPECT_EQ(static_cast<int>(MaxSeverity({})),
            static_cast<int>(Severity::kNote));
  const auto& catalog = RuleCatalog();
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string(catalog[i - 1].id), std::string(catalog[i].id));
  }
}

// --- Dataflow abstract interpretation ----------------------------------------

const NodeFacts* FactsOf(const DataflowResult& result,
                         const std::string& name) {
  for (const NodeFacts& nf : result.nodes) {
    if (nf.name == name) return &nf;
  }
  return nullptr;
}

/// The forward pass propagates declared feed disorder, window
/// resegmentation, validity extents, and cardinalities along the chain.
TEST(Dataflow, FactsPropagateAlongChain) {
  QueryGraph graph;
  auto& src = graph.Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  src.metadata().SetGauge("dataflow.total_elements", 100);
  src.metadata().SetGauge("dataflow.feed_disorder", 5);
  auto& window = graph.Add<algebra::TimeWindow<int>>(100, "window");
  auto& distinct = graph.Add<algebra::Distinct<int>>("distinct");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  src.AddSubscriber(window.input());
  window.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());

  const DataflowResult result = AnalyzeDataflow(graph);
  ASSERT_FALSE(result.has_cycle);

  const NodeFacts* s = FactsOf(result, "src");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->out.order, EdgeFacts::Order::kBoundedDisorder);
  EXPECT_EQ(s->out.disorder, 5);
  EXPECT_EQ(s->out.max_elements, 100u);

  const NodeFacts* w = FactsOf(result, "window");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->out.order, EdgeFacts::Order::kResegmented);
  EXPECT_EQ(w->out.validity_extent, 100);
  EXPECT_EQ(w->out.max_elements, 100u);

  // Bounded feed + bounded extent: the blocking distinct is certifiable.
  const NodeFacts* d = FactsOf(result, "distinct");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->state.blocking);
  EXPECT_NE(d->state.ram_bytes, NodeStateBound::kUnknownBytes);

  EXPECT_TRUE(result.certificate.ram_bounded());
  EXPECT_TRUE(result.certificate.progress_ok);

  // The declared disorder exceeds the (absent) reordering slack, so the
  // only dataflow diagnostic is P023 on the source.
  const auto diags = DataflowDiagnostics(graph);
  ASSERT_EQ(diags.size(), 1u) << ToText(diags);
  EXPECT_EQ(diags[0].rule_id, "P023");
  EXPECT_EQ(diags[0].node, "src");
}

/// Both demo workload graphs certify bounded, progressing state — the same
/// invariant `pipes_lint --certify --fail-on=warning` gates in CI.
TEST(Dataflow, CleanWorkloadsCertifyBoundedAndProgressing) {
  for (const LintSubject& subject :
       {BuildTrafficLintGraph(), BuildNexmarkLintGraph()}) {
    const DataflowResult result = AnalyzeDataflow(*subject.graph);
    EXPECT_FALSE(result.has_cycle);
    EXPECT_TRUE(result.certificate.ram_bounded());
    EXPECT_TRUE(result.certificate.progress_ok);
    EXPECT_NE(result.certificate.disorder_bound,
              NodeDescriptor::Dataflow::kUnknownTime);
    EXPECT_GT(result.certificate.ram_bytes, 0u);
  }
}

/// Plan-level analysis cross-checks the optimizer's cost-model rate
/// estimate against the certified static rate bound.
TEST(Dataflow, PlanAnalysisRunsCostModelCrossCheck) {
  WindowSpec range;
  range.kind = WindowKind::kRange;
  range.range = 1000;
  auto scan = optimizer::ScanOp("bids", BidSchema(), range);
  auto plan = optimizer::FilterOp(
      scan, MakeBinary(relational::BinaryOp::kGt, MakeField(2, "price"),
                       MakeLiteral(Value(10.0))));
  auto analyzed = AnalyzeDataflowPlan(plan);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed->has_cost_check);
  EXPECT_GT(analyzed->certified_rate_eps, 0.0);
  EXPECT_TRUE(analyzed->rate_consistent)
      << "model=" << analyzed->cost_model_rate_eps
      << " certified=" << analyzed->certified_rate_eps;
}

/// Machine-readable dataflow documents stamp the schema version, are
/// parseable back, and never contain inf/NaN (unbounded encodes as -1).
TEST(Dataflow, JsonSchemaVersionRoundTrip) {
  QueryGraph graph;
  auto& src = graph.Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  src.AddSubscriber(sink.input());
  const std::string json = ToJson(AnalyzeDataflow(graph));

  auto version = ParseLintJsonSchemaVersion(json);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(version.value(), kLintJsonSchemaVersion);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  // Documents predating the version stamp are rejected, not misread.
  EXPECT_FALSE(ParseLintJsonSchemaVersion("{\"diagnostics\": []}").ok());
  EXPECT_FALSE(ParseLintJsonSchemaVersion("{\"schema_version\": \"x\"}").ok());
  auto spaced = ParseLintJsonSchemaVersion("{ \"schema_version\" :  7 }");
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(spaced.value(), 7);
}

}  // namespace
}  // namespace pipes::analysis
