// Self-tests of the benchmark harness's own arithmetic: tail-percentile
// selection, open-loop due-time accounting, span self time, and the
// forwarding chunk reader. Plain checks (no test framework) so the
// benchmark package builds nothing beyond the library under test.
//
// Run: .bench_build/perfbench_selftest (run.py runs it before every
// measurement); exit code 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/generators.h"
#include "data/table_chunk_reader.h"
#include "harness/open_loop.h"
#include "harness/stats.h"
#include "harness/timed_reader.h"
#include "harness/trace.h"
#include "util/csv.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #condition);                              \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TailPercentileSelection() {
  // p90 of 100 samples leaves exactly 10 beyond it; p95 leaves 5.
  EXPECT(SamplesBeyond(100, 0.90) == 10);
  EXPECT(SamplesBeyond(100, 0.95) == 5);
  EXPECT(Near(TailQuantileFor(100), 0.90));
  EXPECT(Near(TailQuantileFor(99), 0.75));
  EXPECT(Near(TailQuantileFor(200), 0.95));
  EXPECT(Near(TailQuantileFor(1000), 0.99));
  EXPECT(Near(TailQuantileFor(999), 0.95));
  EXPECT(Near(TailQuantileFor(10000), 0.999));
  EXPECT(Near(TailQuantileFor(19), 0.0));
  EXPECT(Near(TailQuantileFor(20), 0.50));
  // Linear interpolation between closest ranks.
  EXPECT(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 0.9), 4.6));
  EXPECT(Near(Median({}), 0.0));
}

/// Virtual time: sleeping jumps the clock, requests advance it by their
/// service time.
class FakeClock final : public LoopClock {
 public:
  double Now() override { return now_; }
  void SleepUntil(double t) override {
    if (t > now_) now_ = t;
  }
  void Advance(double dt) { now_ += dt; }

 private:
  double now_ = 0.0;
};

void OpenLoopChargesStallToQueuedRequests() {
  FakeClock clock;
  const std::vector<double> due = {0.000, 0.010, 0.020, 0.030, 0.100};
  // Request 1 stalls for 35 ms; every other request takes 1 ms.
  const auto timings =
      RunOpenLoop(due, 1, clock, [&](int64_t index, int) {
        clock.Advance(index == 1 ? 0.035 : 0.001);
      });
  EXPECT(timings.size() == 5);
  EXPECT(Near(timings[0].LatencyFromDue(), 0.001));
  EXPECT(Near(timings[1].LatencyFromDue(), 0.035));
  // Request 2 was due at 20 ms but could only be sent when request 1
  // finished at 45 ms: it is charged 25 ms of queueing plus its own 1 ms.
  EXPECT(Near(timings[2].sent, 0.045));
  EXPECT(Near(timings[2].QueueWait(), 0.025));
  EXPECT(Near(timings[2].LatencyFromDue(), 0.026));
  EXPECT(Near(timings[3].LatencyFromDue(), 0.017));
  // Queueing behind a busy connection is not generator lag.
  EXPECT(Near(timings[2].GeneratorLag(), 0.0));
  // Request 4 arrives after the backlog drained: no queueing.
  EXPECT(Near(timings[4].LatencyFromDue(), 0.001));
  EXPECT(Near(timings[4].GeneratorLag(), 0.0));

  // The after-hook's work is not charged to the request it follows.
  FakeClock clock2;
  const auto hooked = RunOpenLoop(
      {0.0, 0.5}, 1, clock2,
      [&](int64_t, int) {
        clock2.Advance(0.002);
      },
      [&](int64_t, int) { clock2.Advance(0.010); });
  EXPECT(Near(hooked[0].LatencyFromDue(), 0.002));
  EXPECT(Near(hooked[1].LatencyFromDue(), 0.002));

  // Poisson arrivals: seeded, increasing, inside the window, about
  // rate * duration of them.
  const auto a = PoissonArrivals(100.0, 10.0, 7);
  const auto b = PoissonArrivals(100.0, 10.0, 7);
  EXPECT(a == b);
  EXPECT(a.size() > 850 && a.size() < 1150);
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);
  EXPECT(!a.empty() && a.back() < 10.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span span;
  span.name = std::to_string(id);
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

void SpanSelfTime() {
  // Parent [0, 100]; children [10, 30] and [20, 40] overlap (union 30),
  // [90, 120] runs past the parent (10 inside). Self = 100 - 40 = 60.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 40),   MakeSpan(4, 1, 90, 120),
      MakeSpan(5, 2, 12, 18),   MakeSpan(6, 0, 200, 250),
      MakeSpan(7, 6, 300, 400),  // a replay after its parent ended
  };
  const auto self = SelfTimesNs(spans);
  EXPECT(self.at(1) == 60);
  EXPECT(self.at(2) == 14);  // grandchild 5 covers 6 of 20
  EXPECT(self.at(3) == 20);
  EXPECT(self.at(4) == 30);
  EXPECT(self.at(6) == 50);  // child outside the interval covers nothing
  EXPECT(self.at(7) == 100);

  // Recorded spans nest through ScopedSpan ids.
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 0, 9);
    ScopedSpan inner(tracer, "inner", outer.id(), 9);
  }
  const auto recorded = tracer.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[0].name == "inner" && recorded[1].name == "outer");
  EXPECT(recorded[0].parent == recorded[1].id);
  EXPECT(recorded[0].request == 9);
  EXPECT(SelfTimesNs(recorded).at(recorded[1].id) >= 0);
  Tracer off(false);
  { ScopedSpan span(off, "ignored"); }
  EXPECT(off.spans().empty());
}

void ForwardingReaderDeliversIdenticalChunks() {
  dquag::Rng rng(5);
  const dquag::Table table = dquag::datasets::GenerateHotelBooking(1000, rng);
  dquag::TableViewChunkReader direct(&table, 300);
  dquag::TableViewChunkReader wrapped_inner(&table, 300);
  Tracer tracer(true);
  TimedChunkReader wrapped(&wrapped_inner, &tracer, "Next", 0);
  EXPECT(wrapped.chunk_rows() == 300);
  EXPECT(&wrapped.schema() == &wrapped_inner.schema());
  dquag::Table a;
  dquag::Table b;
  int chunks = 0;
  for (;;) {
    auto rows_a = direct.Next(a);
    auto rows_b = wrapped.Next(b);
    EXPECT(rows_a.ok() && rows_b.ok());
    if (!rows_a.ok() || !rows_b.ok()) break;
    EXPECT(*rows_a == *rows_b);
    EXPECT(dquag::WriteCsvString(a.ToCsv()) ==
           dquag::WriteCsvString(b.ToCsv()));
    EXPECT(direct.rows_delivered() == wrapped.rows_delivered());
    if (*rows_a == 0) break;
    ++chunks;
  }
  EXPECT(chunks == 4);
  EXPECT(wrapped.delivered_ns().size() == 4);
  EXPECT(tracer.Durations("Next").size() == 5);  // four chunks + end
  EXPECT(wrapped.next_seconds() > 0.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TailPercentileSelection();
  perfbench::OpenLoopChargesStallToQueuedRequests();
  perfbench::SpanSelfTime();
  perfbench::ForwardingReaderDeliversIdenticalChunks();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
