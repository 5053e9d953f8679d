#include "rows.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace perfbench {

using pipes::Result;
using pipes::Status;
using pipes::relational::Field;
using pipes::relational::Schema;
using pipes::relational::Tuple;
using pipes::relational::Value;
using pipes::relational::ValueType;
using pipes::testing::conformance::IntervalTable;

namespace {

/// The text between the outer parentheses, or an error.
Result<std::string_view> Inner(std::string_view text) {
  if (text.size() < 2 || text.front() != '(' || text.back() != ')') {
    return Status::InvalidArgument("expected '(...)', got '" +
                                   std::string(text) + "'");
  }
  return text.substr(1, text.size() - 2);
}

Result<ValueType> ParseType(std::string_view name) {
  if (name == "INT") return ValueType::kInt;
  if (name == "DOUBLE") return ValueType::kDouble;
  if (name == "BOOL") return ValueType::kBool;
  if (name == "STRING") return ValueType::kString;
  if (name == "NULL") return ValueType::kNull;
  return Status::InvalidArgument("unknown type '" + std::string(name) + "'");
}

Result<Value> ParseValue(std::string_view text, ValueType type) {
  if (text == "NULL") return Value::Null();
  const std::string s(text);
  switch (type) {
    case ValueType::kInt: {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(s.c_str(), &end, 10);
      if (errno != 0 || end != s.c_str() + s.size() || s.empty()) break;
      return Value(static_cast<std::int64_t>(v));
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (end != s.c_str() + s.size() || s.empty()) break;
      return Value(v);
    }
    case ValueType::kBool:
      if (s == "TRUE") return Value(true);
      if (s == "FALSE") return Value(false);
      break;
    case ValueType::kString:
      return Value(s);
    case ValueType::kNull:
      break;
  }
  return Status::InvalidArgument("bad value '" + s + "'");
}

}  // namespace

Result<Schema> ParseSchema(const std::string& text) {
  PIPES_ASSIGN_OR_RETURN(std::string_view inner, Inner(text));
  std::vector<Field> fields;
  while (!inner.empty()) {
    const std::size_t comma = inner.find(", ");
    const std::string_view item = inner.substr(0, comma);
    const std::size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("bad field '" + std::string(item) + "'");
    }
    PIPES_ASSIGN_OR_RETURN(ValueType type, ParseType(item.substr(colon + 1)));
    fields.push_back(Field{std::string(item.substr(0, colon)), type});
    if (comma == std::string_view::npos) break;
    inner.remove_prefix(comma + 2);
  }
  return Schema(std::move(fields));
}

Result<Tuple> ParseTuple(const std::string& text, const Schema& schema) {
  PIPES_ASSIGN_OR_RETURN(std::string_view inner, Inner(text));
  std::vector<Value> values;
  values.reserve(schema.arity());
  for (std::size_t i = 0; i < schema.arity(); ++i) {
    const bool last = i + 1 == schema.arity();
    const std::size_t comma =
        last ? std::string_view::npos : inner.find(", ");
    if (!last && comma == std::string_view::npos) {
      return Status::InvalidArgument("too few values in '" + text + "'");
    }
    PIPES_ASSIGN_OR_RETURN(
        Value v, ParseValue(inner.substr(0, comma), schema.field(i).type));
    values.push_back(std::move(v));
    if (!last) inner.remove_prefix(comma + 2);
  }
  if (schema.arity() == 0 && !inner.empty()) {
    return Status::InvalidArgument("values for an empty schema: " + text);
  }
  return Tuple(std::move(values));
}

Result<IntervalTable> TableFromRows(
    const std::deque<pipes::server::Client::Row>& rows,
    const Schema& schema) {
  IntervalTable table;
  table.schema = schema;
  table.rows.reserve(rows.size());
  for (const pipes::server::Client::Row& row : rows) {
    PIPES_ASSIGN_OR_RETURN(Tuple t, ParseTuple(row.tuple, schema));
    table.rows.emplace_back(std::move(t), row.start, row.end);
  }
  return table;
}

Result<IntervalTable> AtWirePrecision(const IntervalTable& table) {
  IntervalTable out;
  out.schema = table.schema;
  out.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    PIPES_ASSIGN_OR_RETURN(Tuple t,
                           ParseTuple(row.payload.ToString(), table.schema));
    out.rows.emplace_back(std::move(t), row.interval);
  }
  return out;
}

std::size_t AttributeRow(const std::vector<pipes::Timestamp>& event_ts,
                         pipes::Timestamp row_start) {
  const auto it =
      std::upper_bound(event_ts.begin(), event_ts.end(), row_start);
  if (it == event_ts.begin()) return npos;
  return static_cast<std::size_t>(it - event_ts.begin()) - 1;
}

}  // namespace perfbench
