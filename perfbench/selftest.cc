// The benchmark's own tests: the rules every metric rests on.

#include <cstdio>
#include <string>
#include <vector>

#include "rows.h"
#include "util.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void PercentileTests() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.5) == 50, "nearest-rank p50 of 1..100 is 50");
  Expect(Percentile(hundred, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(Percentile({7}, 0.99) == 7, "p99 of one sample is that sample");
  Expect(Percentile({}, 0.5) == 0, "percentile of no samples is 0");
  const Summary s = Summarize(hundred);
  Expect(s.count == 100 && s.max == 100 && s.sum == 5050,
         "summary carries its sample count, max and sum");
  Expect(Median({3, 1, 2, 10}) == 2.5, "median of an even series averages");
}

void AttributionTests() {
  // Events at 0, 0, 2, 5 (start-ordered, with a tie).
  const std::vector<pipes::Timestamp> ts = {0, 0, 2, 5};
  Expect(AttributeRow(ts, -1) == npos, "a row before every event has none");
  Expect(AttributeRow(ts, 0) == 1,
         "a row at 0 goes to the newest of the tied events at 0");
  Expect(AttributeRow(ts, 2) == 2, "a row at 2 goes to the event at 2");
  Expect(AttributeRow(ts, 4) == 2,
         "an aggregate row starting at 4 goes to the newest event before it");
  Expect(AttributeRow(ts, 1000) == 3, "a late row goes to the last event");
}

void RowParsingTests() {
  auto schema = ParseSchema("(machine:INT, power:DOUBLE, ok:BOOL, t:STRING)");
  Expect(schema.ok() && schema->arity() == 4 &&
             schema->field(0).name == "machine" &&
             schema->field(1).type == pipes::relational::ValueType::kDouble,
         "schema text parses back");
  if (!schema.ok()) return;
  auto tuple = ParseTuple("(7, 1300.5, TRUE, a, b)", *schema);
  Expect(tuple.ok() && tuple->field(0).AsInt() == 7 &&
             tuple->field(1).AsDouble() == 1300.5 &&
             tuple->field(3).ToString() == "a, b",
         "row text parses by schema; the last string keeps its commas");
  auto nulls = ParseTuple("(NULL, NULL, FALSE, x)", *schema);
  Expect(nulls.ok() && nulls->field(0).is_null(), "NULL parses as null");
  Expect(!ParseTuple("(7, x, TRUE, a)", *schema).ok(),
         "a malformed double is rejected");
  Expect(!ParseTuple("(7, 1.5)", *schema).ok(), "too few values rejected");
  Expect(!ParseSchema("(machine)").ok(), "a field without a type rejected");
  auto qualified = ParseSchema("(e.machine:INT)");
  Expect(qualified.ok() && qualified->field(0).name == "e.machine",
         "qualified field names survive");

  pipes::testing::conformance::IntervalTable t;
  t.schema = *ParseSchema("(v:DOUBLE)");
  t.rows.emplace_back(
      pipes::relational::Tuple({pipes::relational::Value(1.23456789)}), 0, 1);
  auto wire = AtWirePrecision(t);
  Expect(wire.ok() && wire->rows[0].payload.field(0).AsDouble() == 1.23457,
         "reference rows are cut to the server's %g precision");
}

void ResultLineTests() {
  const std::string line = ResultLine(true, 3, 0, {{"x_ms", 1.5, "ms"}});
  Expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": "
                 "\"ms\"}}}",
         "result line has exactly correct/attempted/failed/metrics");
}

void PerLayerListTests() {
  const std::vector<Metric> m = PerLayerMetrics({{"parallel.speedup", 2.5}});
  bool all_listed = m.size() == PerLayerNames().size();
  double speedup = -1, other = -1;
  for (std::size_t i = 0; all_listed && i < m.size(); ++i) {
    all_listed = m[i].name == PerLayerNames()[i].name &&
                 m[i].unit == PerLayerNames()[i].unit;
    if (m[i].name == "parallel.speedup") speedup = m[i].value;
    if (m[i].name == "server.fetch_rtt_p50_us") other = m[i].value;
  }
  Expect(all_listed, "every per-layer metric is printed, in list order");
  Expect(speedup == 2.5 && other == 0,
         "a supplied value is kept; a layer off the path reads 0");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  PercentileTests();
  AttributionTests();
  RowParsingTests();
  ResultLineTests();
  PerLayerListTests();
  return failures;
}

}  // namespace perfbench
