#include "util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(std::int64_t deadline_ns) {
  const std::int64_t now = NowNs();
  if (deadline_ns <= now) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  for (const double v : values) s.sum += v;
  s.max = *std::max_element(values.begin(), values.end());
  s.p99 = Percentile(values, 0.99);
  s.p50 = Percentile(std::move(values), 0.50);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int CurrentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::map<int, std::int64_t> ThreadCpuNs() {
  std::map<int, std::int64_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int tid = std::atoi(entry->d_name);
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/schedstat");
    std::int64_t on_cpu = 0;
    if (in >> on_cpu) out[tid] = on_cpu;
  }
  ::closedir(dir);
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string LoopbackProbe() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return std::string("socket: ") + std::strerror(errno);
  std::string error;
  if (::bind(listener, sa, sizeof(addr)) < 0) {
    error = std::string("bind: ") + std::strerror(errno);
  } else if (::listen(listener, 1) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
  } else if (::getsockname(listener, sa, &len) < 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
  } else {
    const int peer = ::socket(AF_INET, SOCK_STREAM, 0);
    if (peer < 0) {
      error = std::string("socket: ") + std::strerror(errno);
    } else {
      if (::connect(peer, sa, sizeof(addr)) < 0) {
        error = std::string("connect: ") + std::strerror(errno);
      }
      ::close(peer);
    }
  }
  ::close(listener);
  return error;
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
