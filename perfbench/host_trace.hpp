// Host-time spans recorded by the benchmark around its own calls into the
// library (graph generation, partitioning, each solve, each check), written
// as Chrome trace-event JSON. This is the host-time counterpart of the
// library's virtual-time obs::TraceSink: spans nest by time on one row, so a
// set-up span encloses its generate and partition calls, and a round span
// its solves and checks.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"

namespace perfbench {

class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Host seconds since the benchmark started.
  double Now() const { return origin_.ElapsedSeconds(); }
  size_t size() const { return spans_.size(); }

  void Record(std::string name, const char* cat, double start_s, double end_s) {
    if (enabled_) spans_.push_back({std::move(name), cat, start_s, end_s});
  }

  /// Writes {"traceEvents":[...]} with microsecond timestamps.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}%s\n",
                   s.name.c_str(), s.cat, s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    double start_s;
    double end_s;
  };

  bool enabled_;
  asyncmr::Stopwatch origin_;
  std::vector<Span> spans_;
};

/// Runs `fn`, records it as a span when tracing, returns its host seconds.
template <typename Fn>
double Timed(HostTrace& host, std::string name, const char* cat, Fn&& fn) {
  const double start = host.Now();
  fn();
  const double end = host.Now();
  host.Record(std::move(name), cat, start, end);
  return end - start;
}

}  // namespace perfbench
