#ifndef PERFBENCH_ROWS_H_
#define PERFBENCH_ROWS_H_

// Result rows as they come off the wire, turned back into typed tuples,
// and the rule that charges each row to the input event it waited for.

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/server/client.h"
#include "src/testing/conformance.h"

namespace perfbench {

/// Parses the schema text of a kRegistered reply, "(name:TYPE, ...)".
pipes::Result<pipes::relational::Schema> ParseSchema(const std::string& text);

/// Parses one row's tuple text, "(v1, v2, ...)", typed by `schema`. The
/// last field takes the rest of the text, so only it may hold ", ".
pipes::Result<pipes::relational::Tuple> ParseTuple(
    const std::string& text, const pipes::relational::Schema& schema);

/// Wire rows of one query as an interval table.
pipes::Result<pipes::testing::conformance::IntervalTable> TableFromRows(
    const std::deque<pipes::server::Client::Row>& rows,
    const pipes::relational::Schema& schema);

/// The same table at wire precision: every tuple rendered as the server
/// renders it (doubles with %g) and parsed back.
pipes::Result<pipes::testing::conformance::IntervalTable> AtWirePrecision(
    const pipes::testing::conformance::IntervalTable& table);

/// Latency attribution: the index of the newest input event (in the
/// start-ordered `event_ts`) with timestamp <= `row_start`, or `npos` when
/// no event precedes the row. A row cannot be emitted before that event
/// has arrived. For the point rows of filters and joins it is the event
/// that produced the row; for an aggregate it is the newest event at the
/// row's start, so the charge also holds the wait until the engine closed
/// the row's segment.
std::size_t AttributeRow(const std::vector<pipes::Timestamp>& event_ts,
                         pipes::Timestamp row_start);

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

}  // namespace perfbench

#endif  // PERFBENCH_ROWS_H_
