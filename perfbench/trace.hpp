// The benchmark's own span recorder.
//
// Spans live in memory, one buffer per rank (each rank thread touches only
// its own), and are written as Chrome-trace JSON when the benchmark ends.
// The library's obs::Span tracer stays off: this recorder only wraps the
// benchmark's calls into each layer's public functions, so its span names
// are the benchmark's vocabulary, not entries of src/obs/phases.def.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;
  long long solve_id;
  int parent;  ///< index into the same rank's buffer, -1 for the root
  long long start_ns;
  long long end_ns;
  double work;  ///< operation count the caller attributes to this span
};

/// One rank's span buffer plus its open-span stack.
struct RankTrace {
  int rank = 0;
  long long solve_id = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> open;
};

/// RAII span on one rank's buffer; parent = innermost open span.
class Span {
 public:
  Span(RankTrace& trace, const char* name) : trace_(trace) {
    index_ = static_cast<int>(trace_.spans.size());
    const int parent = trace_.open.empty() ? -1 : trace_.open.back();
    trace_.spans.push_back({name, trace_.solve_id, parent, now_ns(), 0, 0});
    trace_.open.push_back(index_);
  }
  ~Span() {
    trace_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    trace_.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_work(double amount) {
    trace_.spans[static_cast<std::size_t>(index_)].work += amount;
  }

 private:
  RankTrace& trace_;
  int index_;
};

/// Self time of span i: its duration minus the union of its children
/// (children of one span never overlap, they run on the same thread).
inline std::vector<double> self_seconds(const RankTrace& trace) {
  std::vector<double> self(trace.spans.size());
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    self[i] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

/// Writes every rank's spans as Chrome-trace "X" events (tid = rank).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<RankTrace>& ranks,
                               const std::string& workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  long long t0 = -1;
  for (const RankTrace& r : ranks) {
    for (const SpanRecord& s : r.spans) {
      if (t0 < 0 || s.start_ns < t0) t0 = s.start_ns;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                  "\"%s\"},\"traceEvents\":[",
               workload.c_str());
  bool first = true;
  for (const RankTrace& r : ranks) {
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      const SpanRecord& s = r.spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"solve_id\":%lld,"
                   "\"parent\":%d,\"work\":%.17g}}",
                   first ? "" : ",", s.name, r.rank,
                   1e-3 * static_cast<double>(s.start_ns - t0),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   s.solve_id, s.parent, s.work);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
