#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans around the benchmark's calls into each PIPES layer.
// Every thread records into a lane of its own; lanes are read only after
// the threads that fill them have joined. Spans of one event or request
// share its id; `parent` is the id of the span that caused it (0 = none).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< A string literal: "engine.push", ...
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. Recording is a no-op on an untraced run.
class SpanLane {
 public:
  explicit SpanLane(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled_) spans_.push_back({name, id, parent, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Durations in microseconds of every span called `name` across `lanes`.
std::vector<double> SpanDurationsUs(const std::vector<const SpanLane*>& lanes,
                                    std::string_view name);

/// Writes every span as one tab-separated line
/// `name id parent start_ns end_ns`; false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLane*>& lanes);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
