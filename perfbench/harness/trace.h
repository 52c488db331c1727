// Outside-in span recorder for the benchmark harness.
//
// Spans are recorded around the harness's own calls into the library's
// public functions (never inside the program under test), kept in memory,
// and written once when the run ends as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Spans of one request share a request id;
// a span's parent is the span that caused it. A disabled Tracer records
// nothing, so the untraced run pays one branch per call site.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request; 0 = none
  int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  uint64_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Nanoseconds since the tracer was created.
  int64_t NowNs() const;

  /// Reserves a span id (0 when disabled).
  uint64_t NewId();

  /// Records a finished span. No-op when disabled.
  void Record(Span span);

  std::vector<Span> spans() const;

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: starts on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other or run past the parent; only the covered overlap counts).
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
