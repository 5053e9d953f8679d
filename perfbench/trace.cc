#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

std::vector<double> SpanDurationsUs(const std::vector<const SpanLane*>& lanes,
                                    std::string_view name) {
  std::vector<double> out;
  for (const SpanLane* lane : lanes) {
    for (const Span& s : lane->spans()) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLane*>& lanes) {
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLane* lane : lanes) {
    for (const Span& s : lane->spans()) {
      std::fprintf(f, "%s\t%llu\t%llu\t%lld\t%lld\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
